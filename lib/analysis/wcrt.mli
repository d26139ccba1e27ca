(** Algorithm 1 of the paper: safe WCRT analysis of fault-tolerant
    mixed-criticality systems with run-time task dropping.

    The analysis first derives normal-state bounds (no fault: passive
    spares silent, re-executables at their nominal cost), then enumerates
    every job [v] that can trigger the transition to the critical state
    (re-executable or passive spare) and re-analyses the system with
    per-job execution bounds adjusted by chronology (Fig. 3):

    - jobs that certainly complete before [v] can first start
      ([maxFinish_w < minStart_v]) keep their normal-state bounds;
    - jobs of dropped-set graphs that certainly start after [v]'s
      worst-case completion are certainly dropped — [[0, 0]];
    - jobs of dropped-set graphs overlapping the transition may either
      run or be dropped — [[0, wcet]];
    - remaining (non-dropped) jobs use their critical-state worst case:
      Eq. (1) for re-executables, possible invocation for passive
      spares.

    The per-graph result is the maximum over the normal state and all
    trigger scenarios. The trigger scenarios run on the engine's
    reducing entry and stop at the first one that diverges, which
    already decides the report (see {!scenarios}). *)

type report = {
  wcrt : Verdict.t array;
      (** per source graph: WCRT over normal state and all trigger
          scenarios — the value Table 2 reports *)
  normal_wcrt : Verdict.t array;
      (** per source graph: normal-state-only WCRT *)
  required_wcrt : Verdict.t array;
      (** the bound that must meet the deadline: graphs in the dropped
          set [T_d] only owe their deadline in the normal state (once
          dropped they provide no service), all other graphs owe it in
          every scenario *)
  scenarios : int;
      (** number of trigger scenarios analysed — one per trigger job,
          whether or not its fixpoint was shared with an earlier
          trigger *)
}

type 'ctx engine = (module Mcmap_sched.Fixpoint.ENGINE with type ctx = 'ctx)
(** [(module Mcmap_sched.Flat)] or [(module Mcmap_sched.Bounds)]. *)

val analyze_with : 'ctx engine -> 'ctx -> report
(** Algorithm 1 on [engine]: the normal state, then every trigger
    scenario of the context's jobset ({!trigger_scenarios}: triggers
    with equal exec vectors share one fixpoint). The report equals the
    unshared per-trigger fold of {!trigger_scenario}, and both engines
    give equal reports (the [flat-agreement] oracle checks both);
    [scenarios] counts every trigger, also those a divergence absorbed.
    With metrics enabled it observes [wcrt.scenarios] (triggers),
    [wcrt.fixpoints] (trigger fixpoints solved) and
    [wcrt.scenarios_absorbed] (triggers left unsolved after a diverged
    one). Every fixpoint runs at the engine's default cap,
    {!Mcmap_sched.Bounds.default_max_iterations}. *)

val analyze : Mcmap_sched.Bounds.ctx -> report
(** [analyze_with (module Bounds)]: the independent reference. *)

(** {1 Scenario steps} — what {!analyze_with} folds, and what the
    oracles hold its shared walk to. *)

val normal : 'ctx engine -> 'ctx -> Mcmap_sched.Bounds.result
(** The normal-state fixed point ({!Mcmap_sched.Bounds.nominal_exec}). *)

val trigger_scenario :
  'ctx engine ->
  'ctx ->
  normal:Mcmap_sched.Bounds.result ->
  Mcmap_sched.Job.t ->
  Mcmap_sched.Bounds.result
(** The scenario of trigger [v] ({!scenario_exec}), given the context's
    normal-state result. *)

type 'a scenarios =
  | Solved of 'a array
      (** one outcome per trigger, in {!Mcmap_sched.Jobset.triggers}
          order *)
  | Diverged of int
      (** the fixpoint of the trigger at this index diverged; the
          triggers after it were not solved *)
(** The trigger scenarios of one context. A diverged scenario makes
    every graph [Unbounded], and {!Verdict.max} with [Unbounded] is
    absorbing, so once one scenario diverges the report is decided:
    every [wcrt] is [Unbounded], and every [required_wcrt] too except
    those of dropped-set graphs, which equal their normal-state
    verdicts. The walk therefore stops there. *)

val trigger_scenarios :
  'ctx engine ->
  'ctx ->
  normal:Mcmap_sched.Bounds.result ->
  (int array -> 'a) ->
  'a scenarios * int
(** [trigger_scenarios engine ctx ~normal f] walks the triggers of the
    context's jobset in {!Mcmap_sched.Jobset.triggers} order and solves
    each through the engine's reducing entry
    ([Fixpoint.ENGINE.analyze_into]). It returns the outcomes and the
    number of fixpoints solved.

    A fixpoint depends only on the context, the iteration cap and the
    per-job [(bcet', wcet')] vector of {!scenario_exec}. So triggers
    with equal vectors share one fixpoint and one [f] result.

    For a converged fixpoint, [f] gets the per-job worst finishes: the
    [max_finish] projection of [trigger_scenario engine ctx ~normal v].
    The array is scratch, reused for the next fixpoint, so [f] must not
    keep it. [Solved outcomes] has [f]'s result for every trigger.

    The first fixpoint that does not converge ends the walk with
    [Diverged i], where [i] is that trigger's index. It does not stand
    in for the later triggers' own outcomes: those were never solved,
    and the [i + 1] triggers walked cost the fixpoints counted. *)

val scenario_exec :
  base:int ->
  Mcmap_sched.Bounds.job_bounds array ->
  Mcmap_sched.Job.t ->
  Mcmap_sched.Job.t ->
  int * int
(** [scenario_exec ~base nb v w]: the per-job execution bounds of the
    trigger scenario of job [v], given normal-state bounds [nb] and the
    application hyperperiod [base] (Algorithm 1 lines 12-29 — the
    chronology cases documented above). *)

val schedulable : Mcmap_sched.Jobset.t -> report -> bool
(** Every graph's [required_wcrt] meets its relative deadline. *)

val pp_report : Mcmap_sched.Jobset.t -> Format.formatter -> report -> unit
