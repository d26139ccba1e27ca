(** Analytic best-case-start / worst-case-finish bounds — the [sched]
    backend required by Algorithm 1 of the paper (in the role of Kim et
    al.'s DAC'13 analysis, ref [9]).

    For every job the analysis derives a safe interval
    [[min_start, max_finish]]:

    - best case by a forward pass over the job DAG assuming no
      interference (each job runs for its best-case execution time as
      soon as its predecessors' best cases allow);
    - worst case by a monotone fixed point: a job's worst finish is its
      latest data-ready time plus its worst-case execution time plus the
      execution demand of every same-processor, higher-or-equal-priority,
      non-precedence-related job whose execution window can overlap its
      own (plus a blocking term on non-preemptive processors).
      Interference is charged with pay-bursts-only-once accounting: an
      interferer job executes once, so cycles charged along every
      predecessor path are not charged again — except across busy-chain
      restarts (a release that strictly dominates all predecessor
      completions), where the charged set must reset.

    Worst-case values only grow during iteration and are capped by a
    horizon; exceeding the cap (or the iteration budget) yields
    [converged = false] — an explicit "no safe bound" verdict. *)

type job_bounds = {
  min_start : int;
  min_finish : int;
  max_start : int;
  max_finish : int;
}

type result = {
  bounds : job_bounds array;  (** indexed by job id *)
  converged : bool;
      (** [false] when the fixed point hit the horizon or iteration cap:
          worst-case values are then unreliable upper estimates *)
}

type ctx
(** Precomputed, scenario-independent data (precedence reachability,
    per-processor job lists). Build once per jobset, reuse across the many
    scenario analyses of Algorithm 1. *)

val make : ?horizon:int -> Jobset.t -> ctx
(** Default horizon: [4 * hyperperiod + max abs_deadline] over the jobs.
    Pass a smaller [?horizon] to truncate the analysis, as the
    [flat-agreement] oracle does to hold both engines' divergence to
    each other. *)

val jobset : ctx -> Jobset.t

val default_max_iterations : int
(** The single shared fixed-point sweep cap (64): the default of both
    engines' [?max_iterations] ({!analyze}, {!analyze_into} and
    [Flat]'s). The layers above the engines — [Wcrt], [Naive],
    [Evaluate], [Evaluator], [Ga] — take no cap and always run at this
    one. *)

val analyze :
  ?max_iterations:int -> ctx -> exec:(Job.t -> int * int) -> result
(** [analyze ctx ~exec] runs the analysis with per-job execution bounds
    [exec job = (bcet', wcet')] — the scenario hook Algorithm 1 uses to
    encode normal / transition / critical states. Default iteration cap:
    {!default_max_iterations} sweeps.
    @raise Invalid_argument if some [bcet' > wcet'] or a bound is
    negative. *)

val analyze_into :
  ?max_iterations:int ->
  ctx ->
  exec:int array ->
  max_finish:int array ->
  bool
(** The reducing entry of [Fixpoint.ENGINE], served through {!analyze}:
    the fixed point under the interleaved [(bcet', wcet')] vector
    [exec], its per-job [max_finish] copied into [max_finish] and its
    [converged] flag returned. It stays a projection of the
    materialising path so that the reference remains independent of
    the flat kernel.
    @raise Invalid_argument as {!analyze}, or if [exec] has fewer than
    [2 * n] entries or [max_finish] fewer than [n]. *)

val nominal_exec : Job.t -> int * int
(** The normal-state bounds of §3: passive spares are silent ([0, 0]);
    every other job keeps its nominal [(bcet, wcet)]. *)

val graph_wcrt : Jobset.t -> result -> graph:int -> int option
(** Worst response time of the graph over all its response-defining jobs
    (relative to each job's release); [None] if the analysis did not
    converge. *)

val meets_deadlines : Jobset.t -> result -> bool
(** Every job finishes by its absolute deadline (and the analysis
    converged). *)
