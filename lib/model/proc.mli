(** Processing elements of the MPSoC architecture (paper §2.1).

    Each processor [p] carries a type, leakage power [stat_p], dynamic power
    [dyn_p], and a constant transient-fault rate [lambda_p] per time unit.
    A per-processor speed factor models heterogeneity of execution times; a
    scheduling policy says how tasks mapped onto it are served locally. *)

type policy =
  | Preemptive_fp  (** fixed-priority, preemptive *)
  | Non_preemptive_fp  (** fixed-priority, run-to-completion *)

type t = {
  id : int;  (** index into the architecture's processor array *)
  name : string;
  proc_type : string;  (** e.g. "RISC", "DSP" — informational *)
  static_power : float;  (** leakage power, consumed while allocated *)
  dynamic_power : float;  (** power at 100 % utilisation *)
  fault_rate : float;  (** lambda_p: transient faults per time unit *)
  speed : float;
      (** execution-time multiplier; 1.0 = reference speed; finite and
          positive *)
  policy : policy;
}

val make :
  ?proc_type:string ->
  ?static_power:float ->
  ?dynamic_power:float ->
  ?fault_rate:float ->
  ?speed:float ->
  ?policy:policy ->
  id:int ->
  name:string ->
  unit ->
  t
(** Defaults: type ["RISC"], static 0.1, dynamic 1.0, fault rate 1e-6,
    speed 1.0, preemptive fixed-priority. *)

val max_scaled_time : int
(** [2^40], the cap of {!scale_time}: sums of up to [2^21] scaled times
    stay below [max_int]. A system read from a spec never reaches it:
    [Spec.build_system] rejects any period, deadline or task time that
    would ({!saturates}). *)

val saturates : speed:float -> int -> bool
(** [saturates ~speed c] holds when [c > 0] scaled by [speed] and
    rounded up reaches {!max_scaled_time}, i.e. when {!scale_time} on a
    processor of that speed returns the cap instead of the exact
    product. *)

val scale_time : t -> int -> int
(** [scale_time p c] is [c] scaled by the processor's speed factor, rounded
    up (slower processor => larger execution time), at least [c > 0 => 1]
    and at most {!max_scaled_time}. Monotone in [c]; [0] for [c <= 0]. *)

val fault_probability : t -> int -> float
(** [fault_probability p duration] is the probability that at least one
    transient fault strikes an execution of the given duration on [p]:
    [1 - exp (-lambda_p * duration)]. *)

val pp : Format.formatter -> t -> unit
