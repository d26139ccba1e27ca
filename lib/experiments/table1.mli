(** Experiment E6 (extension) — Table 1 of the paper, made quantitative.

    Table 1 positions the paper against static fault-tolerant mapping
    approaches (refs [2, 3]): static schedules must be synthesized per
    fault scenario (ref [2] needs 19 schedules for 5 tasks) and the
    single all-worst-case schedule is rigid. For each benchmark, on the
    same hardened mapping, this experiment reports:

    - the number of fault scenarios a per-scenario static approach must
      precompute ({!Mcmap_sched.Static_schedule.scenario_count});
    - the worst critical-application response of the single rigid
      all-worst-case static schedule;
    - Algorithm 1's bound for the same applications under dynamic
      fixed-priority scheduling with task dropping. *)

type entry = {
  benchmark : string;
  scenarios : float;
      (** schedules a per-scenario static approach must precompute *)
  static_response : int;
      (** worst critical-graph response of the rigid static schedule *)
  dynamic_response : Mcmap_analysis.Verdict.t;
      (** Algorithm 1 bound for the same critical graphs *)
  static_nominal_makespan : int;
}

val run : ?seed:int -> ?benchmarks:string list -> unit -> entry list
(** Default: all five benchmarks, on their balanced seeded mapping. *)

val render : entry list -> string
(** The table, followed by the paper's Table 1 argument it quantifies. *)
