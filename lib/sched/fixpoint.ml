(** The fixed-point engine signature of Algorithm 1's [sched] backend.

    An engine turns a jobset into a reusable, scenario-independent
    context and solves the best/worst interval fixed point on it for any
    per-job execution bounds. {!Bounds} (the readable reference) and
    {!Flat} (the structure-of-arrays kernel) are its two instances; they
    agree field for field on every input, which the [flat-agreement]
    check oracle enforces, so the scenario loop in [Wcrt] and the
    evaluator sessions are written once against this signature.

    There are two entries. {!ENGINE.analyze} materialises every per-job
    interval: the normal state needs it, because the trigger scenarios
    read its [min_start]s. {!ENGINE.analyze_into} is the reducing entry
    the trigger scenarios use: they only read each job's worst finish
    and the [converged] flag, so it takes the scenario as a plain int
    vector and writes the finishes into a caller-owned array — on
    {!Flat}, with no allocation at all. *)

module type ENGINE = sig
  type ctx

  val make : ?horizon:int -> Jobset.t -> ctx
  (** Default horizon: [4 * hyperperiod + max abs_deadline] over the
      jobs, identical for every engine. *)

  val jobset : ctx -> Jobset.t

  val analyze :
    ?max_iterations:int ->
    ctx ->
    exec:(Job.t -> int * int) ->
    Bounds.result
  (** One fixed point under per-job execution bounds [exec]. Default
      iteration cap: {!Bounds.default_max_iterations}. *)

  val analyze_into :
    ?max_iterations:int ->
    ctx ->
    exec:int array ->
    max_finish:int array ->
    bool
  (** [analyze_into ctx ~exec ~max_finish] is the reducing entry: the
      same fixed point with job [id]'s bounds read from the interleaved
      vector [(exec.(2 * id), exec.(2 * id + 1))] = [(bcet', wcet')].
      It writes each job's worst finish into [max_finish.(id)] and
      returns [converged]. These equal the [max_finish] projection and
      [converged] flag of [analyze] under the same bounds, whether or
      not the fixed point converged (the [flat-agreement] oracle checks
      both engines at several iteration caps).
      @raise Invalid_argument if [exec] has fewer than [2 * n] entries,
      [max_finish] fewer than [n], or some [bcet' > wcet'] or bound is
      negative. *)
end
