(** Evaluator sessions: the handle-based analysis API of the design-space
    exploration (DESIGN.md §11).

    A session [create arch apps] precomputes everything plan-independent
    — deadlines and reliability bounds — and memoises everything
    plan-dependent in two bounded LRU tiers behind canonical 128-bit
    fingerprints:

    - results: full evaluations keyed by the plan fingerprint and
      guarded by structural plan equality against collisions. GA
      duplicates, re-elites and the no-drop twin of the rescue re-check
      all go through it;
    - rows: per decision row, the hardened graph and, for a graph with a
      reliability bound, its failure rate, so a mutation touching one
      graph rebuilds only that graph's image.

    A result miss runs Algorithm 1 once on the whole jobset
    ([Mcmap_sched.Jobset.build], [Mcmap_sched.Flat.make], then
    [Mcmap_analysis.Wcrt.analyze_with] on the flat engine): the same
    scenario driver as [mcmap analyze], so triggers with equal exec
    vectors share one fixpoint and the first diverged trigger scenario
    ends the walk.

    Every cached path reproduces [Evaluate.evaluate] {e exactly} — field
    for field, bit for bit on floats — which the [evaluator-agreement]
    check oracle enforces; determinism of {!eval_population} for any
    domain count follows. *)

type t

val create :
  ?cache_capacity:int ->
  ?domains:int ->
  ?check_rescue:bool ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  t
(** [cache_capacity] (default 4096) bounds the result tier, and the row
    tier at four times that; 0 disables both (every call analyses afresh,
    population duplicates included — useful for measuring). [domains]
    (default 1) parallelises {!eval_population}.
    [check_rescue] (default true) is {!Evaluate.evaluate}'s option, set
    once per session.
    @raise Invalid_argument if [domains < 1] or [cache_capacity < 0]. *)

val arch : t -> Mcmap_model.Arch.t

val apps : t -> Mcmap_model.Appset.t

val eval : t -> Mcmap_hardening.Plan.t -> Evaluate.t
(** Evaluate one plan through the session caches. Exactly equal to
    [Evaluate.evaluate ~check_rescue arch apps plan] (with the session's
    [check_rescue]), except the returned [plan] field is the argument
    itself.

    Domain safety: safe to call concurrently from any number of
    domains. Every cache tier is guarded by one session lock, cached
    values are immutable once published, and each analysis builds its
    own context, whose [Flat] scratch lives in a per-domain arena;
    racing domains can at worst duplicate
    work, never diverge (audited in [evaluator.ml], exercised by the
    concurrent-access test). Not safe from multiple systhreads that
    share one domain while the {!Mcmap_obs.Flight} recorder is armed —
    its per-domain ring assumes one mutator per domain. *)

val eval_population :
  t -> Mcmap_hardening.Plan.t array -> Evaluate.t array
(** Evaluate a population: the first plan of each canonical-equality
    class goes through the result tier on the session's domains, and
    each later duplicate is then served from its class's entry (one
    result hit). The result array is index-aligned and byte-identical
    for any domain count.

    Concurrent calls on one session are serialised (each call owns the
    session's single population fan-out at a time); [mcmap serve]
    relies on exactly this discipline when several workers share a
    pooled session. *)

val power : t -> Mcmap_hardening.Plan.t -> float
(** The power objective through the session's cached hardened graphs;
    bit-identical to [Evaluate.power_of_plan]. *)

val fingerprint : Mcmap_hardening.Plan.t -> Mcmap_util.Fingerprint.t
(** The canonical plan fingerprint: an order-independent hash over
    bind/technique/drop genes. Coordinates that cannot influence any
    result — a voter binding under a voterless technique — are excluded,
    so such plans share cache entries. *)

val canonical_equal : Mcmap_hardening.Plan.t -> Mcmap_hardening.Plan.t -> bool
(** Structural equality modulo canonically-ignored coordinates: the
    equivalence whose classes {!fingerprint} keys, used as the collision
    guard on every result-cache hit. *)

(** {1 Metrics}

    With the recorder enabled a session counts every cache decision in
    {!Mcmap_obs.Obs}, one labelled counter family per tier
    ([evaluator.result~hit|miss|evict|collision] and
    [evaluator.rows~hit|miss|evict]), and records the spans
    [evaluator.eval] and [evaluator.eval_population]; a result miss also
    records Algorithm 1's own [wcrt.*] metrics and its [jobset.build],
    [flat.make] and [wcrt.analyze] spans. *)
