(** Candidate evaluation: objectives and constraints (paper §2.3, §4).

    Objectives (both as minimisation entries of [objectives]):
    + provisioned power consumption
      [sum_p (stat_p + dyn_p * u_p)] over used processors, with [u_p]
      the certified critical-state utilisation (Eq. (1) WCETs, dropped
      graphs excluded) — the demand the design must provision for, so
      task dropping saves real capacity and power;
    + negated quality of service [- sum_{t not in T_d} sv_t].

    Constraints: reliability (per {!Mcmap_reliability.Analysis}) and
    schedulability under Algorithm 1 ({!Mcmap_analysis.Wcrt}). Violations
    are aggregated into a magnitude used for constraint-domination. *)

type t = {
  plan : Mcmap_hardening.Plan.t;
  power : float;
  service : float;
  schedulable : bool;
  reliable : bool;
  violation : float;  (** 0 when feasible; larger = worse *)
  rescued : bool;
      (** feasible as decoded but infeasible when dropping is disabled —
          the solutions counted by the paper's §5.2 ratio *)
  objectives : float array;  (** [| power; -. service |] *)
}

val feasible : t -> bool

val power_of_happ : Mcmap_model.Arch.t -> Mcmap_hardening.Happ.t -> float
(** The power objective of an already-hardened application set — the
    computation both {!power_of_plan} and the session-cached
    [Evaluator.power] bottom out in, so their results are bit-identical. *)

val power_of_plan :
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  Mcmap_hardening.Plan.t ->
  float
(** The power objective alone (no scheduling analysis), from a fresh
    hardened application set: the reference that the
    [evaluator-agreement] oracle, the tests and perfbench's check path
    hold [Evaluator.power] to, bit for bit. Optimisation loops call
    [Evaluator.power], which reuses cached hardened graphs. *)

val service_of_plan :
  Mcmap_model.Appset.t -> Mcmap_hardening.Plan.t -> float
(** Quality of service delivered by the plan: summed [sv_t] of droppable
    graphs kept out of the dropped set. *)

val violation_of :
  deadlines:int array ->
  Mcmap_analysis.Verdict.t array ->
  Mcmap_reliability.Analysis.violation list ->
  float
(** [violation_of ~deadlines required rel_violations]: the aggregate
    constraint-violation magnitude over per-graph required WCRT verdicts
    and reliability violations. Exposed so the session evaluator
    aggregates in exactly the same floating-point order as {!evaluate}. *)

val evaluate :
  ?check_rescue:bool ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  Mcmap_hardening.Plan.t ->
  t
(** Full evaluation. [check_rescue] (default true) additionally analyses
    the same plan with an empty dropped set to detect dropping-rescued
    candidates; pass [false] to halve analysis cost when the statistic is
    not needed.

    Every call starts from nothing and shares no cache or code path
    with an [Evaluator] session, which makes it the independent
    reference of the [evaluator-agreement] oracle: [lib/check], the
    tests and perfbench's check path hold [Evaluator.eval] to it field
    for field. Optimisation loops call [Evaluator.eval]. *)
