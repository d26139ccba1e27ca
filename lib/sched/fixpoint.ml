(** The fixed-point engine signature of Algorithm 1's [sched] backend.

    An engine turns a jobset into a reusable, scenario-independent
    context and solves the best/worst interval fixed point on it for any
    per-job execution hook. {!Bounds} (the readable reference) and
    {!Flat} (the structure-of-arrays kernel) are its two instances; they
    agree field for field on every input, which the [flat-agreement]
    check oracle enforces, so the scenario loop in [Wcrt] and the
    evaluator sessions are written once against this signature. *)

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
end
