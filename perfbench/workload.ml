(* What a workload provides to the harness in [perfbench.ml]. *)

module type S = sig
  type state

  val rate : float
  (** nominal ops per second at reference CPU speed *)

  val tail_percentile : float
  (** the percentile [tail_ms] reports; at least ten samples lie above it *)

  val setup_reps : int
  (** set-ups per run; [setup_s] is their median *)

  val setup : Config.t -> state
  (** Everything before the first op: inputs, files, servers. Timed. *)

  val dispose : state -> unit

  val prepare : Config.t -> state -> unit
  (** Expected outputs and warm-up; untimed. *)

  val pass : Config.t -> state -> Meter.t -> ops:int -> unit
  (** Run ops [0 .. ops-1]: time, sample and check each. Op roots are
      spans named ["<workload>.op"]. *)

  val layers : state -> Meter.t -> (string * float) list
  (** Workload-specific per-layer metrics of the traced pass. *)

  val pid : state -> int
  (** the process doing the work, whose peak RSS is reported; 0 for the
      measuring process itself *)

  val checks : Config.t -> state -> bool
  (** Run-level output checks after the passes. *)
end
