(** Flat-kernel rewrite of the {!Bounds} best/worst interval analysis —
    same algorithm, same results, structure-of-arrays execution.

    {!Bounds.analyze} is the innermost loop of Algorithm 1: every GA
    generation, campaign shard and evaluator session runs it thousands
    of times on cold (uncached) inputs. This module re-implements the
    identical fixed point with the data laid out for that loop:

    - job fields, precedence edges and interference candidates live in
      preallocated flat [int] arrays (CSR adjacency, no tuples, no
      per-job records touched inside the sweep);
    - the statically-known interference structure is resolved at
      {!make} time with word operations only: precedence relatedness
      as ancestor and descendant closures over bitset rows, each job's
      interference candidates as its processor's priority prefix minus
      its related row, and (on non-preemptive processors) its
      lower-priority blocking candidates ordered by static bound, so
      the sweep never re-tests relatedness or priorities and can stop
      a blocker scan early;
    - charged-interferer sets are rows of bitset words in a per-domain
      scratch arena that is reused across evaluations, handled with
      inline word loops and a constant-time lowest-bit index — the
      fixed-point iteration allocates nothing.

    The contract is exact agreement: for every jobset, [exec] hook,
    [?horizon] and [?max_iterations], {!analyze} returns a
    {!Bounds.result} equal field-for-field (every per-job interval and
    the [converged] flag) to what {!Bounds.analyze} returns on a
    {!Bounds.ctx} built with the same options. The [flat-agreement]
    check oracle enforces this over random systems and mutation chains;
    {!Bounds} stays untouched as the differential reference. *)

type ctx
(** Precomputed, scenario-independent data (flattened precedence,
    per-job interference candidates, horizon). Build once per jobset,
    reuse across the many scenario analyses of Algorithm 1 — exactly
    the role of {!Bounds.ctx}. *)

val make : ?horizon:int -> Jobset.t -> ctx
(** Same default horizon as {!Bounds.make}:
    [4 * hyperperiod + max abs_deadline] over the jobs. *)

val jobset : ctx -> Jobset.t

val interference_sets : ctx -> int -> int list * int list
(** [interference_sets ctx j] is job [j]'s static interference
    structure as [make] resolved it: its interference candidates
    (same-processor, precedence-unrelated, priority higher or equal),
    ascending, and its blocking candidates (on a non-preemptive
    processor, the unrelated same-processor jobs of strictly lower
    priority) in the order the sweep scans them: by
    [max wcet critical_wcet], descending. For tests. *)

val lowest_index : int -> int
(** The index (0–62) of the lowest set bit of a non-zero [int], in
    constant time; the sweep's candidate walk uses the same lookup. *)

val analyze :
  ?max_iterations:int -> ctx -> exec:(Job.t -> int * int) -> Bounds.result
(** [analyze ctx ~exec] runs the flat fixed point; the result is
    interchangeable with (and equal to) the reference engine's, so
    {!Bounds.graph_wcrt} and {!Bounds.meets_deadlines} apply directly.
    Default iteration cap: {!Bounds.default_max_iterations}.
    @raise Invalid_argument if some [bcet' > wcet'] or a bound is
    negative. *)

val analyze_into :
  ?max_iterations:int ->
  ctx ->
  exec:int array ->
  max_finish:int array ->
  bool
(** The reducing entry of {!Fixpoint.ENGINE}: the fixed point of
    {!analyze} on the interleaved [(bcet', wcet')] vector [exec], with
    each job's worst finish copied from the arena into [max_finish] and
    [converged] returned. Shares its sweep with {!analyze}, and
    allocates nothing once the arena has grown to the jobset. *)

val scratch_capacity : unit -> int
(** Capacity (in jobs) of the calling domain's scratch arena — 0 before
    the first {!analyze} on this domain. Exposed for tests asserting the
    arena is actually reused rather than regrown per evaluation. *)
