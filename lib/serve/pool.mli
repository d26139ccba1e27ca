(** The server's session pool: one entry per distinct system text,
    shared by every connection and worker that sends that text, with
    bounded LRU eviction of cold entries.

    An entry holds what a served system needs once, whatever the plan:

    - the built {!Mcmap_spec.Spec.system};
    - its lint diagnostics (the system half of
      {!Mcmap_lint.Lint.ingest}'s gate), taken when the text is pooled,
      whatever the request's [(no-lint)];
    - one {!Mcmap_dse.Evaluator} session;
    - a bounded LRU memo of the plan half of the gate,
      {!Mcmap_lint.Lint.plan_against}'s result (the plan's own
      diagnostics and built plan, failed plans included), keyed by
      [(no_lint, plan text)].

    A request whose system text is pooled parses nothing it has seen
    before: it joins the entry's system diagnostics with the
    plan half from the memo ({!Mcmap_lint.Lint.combine}), and only a
    plan text new to the entry is linted against the pooled system, or
    with [(no-lint)] only parsed and built. The pool miss that pools a
    system goes the same way, so a repeated plan text hits from its
    second request. The memo holds each plan's own half, never the
    joined verdict: each request joins it with the system half its
    [(no-lint)] asks for. A system that is not pooled runs both halves
    as the cold path does. Answers are byte-identical to the cold
    {!Mcmap_lint.Lint.ingest} path.

    Entries are keyed by the system text the request's ingest already
    printed, so the pool never prints the system again; plans likewise
    by their printed text. Keys compare as whole strings, which is the
    collision guard: the same text always builds the same system or
    plan and draws the same diagnostics, and a different text is a
    different entry. Forms that arrive in a different order are
    therefore their own entry — a miss, never a wrong answer.

    Only systems that build without an error diagnostic for the
    request are pooled: a linted miss with lint errors is not, while a
    [(no-lint)] miss pools any system that builds. Either way the miss
    lints the system once, so an entry's diagnostics never change and a
    hit writes nothing; a linted request on a system pooled under
    [(no-lint)] is refused if its diagnostics hold an error — a system
    with lint errors is never evaluated for a linted request. The cost
    is one [Lint.lint_system] per [(no-lint)] pool miss; a [(no-lint)]
    miss whose system does not build is refused with that lint's first
    error, the cold path's one diagnostic.

    {b Memory.} A plan text enters its entry's memo on its second
    request: the first only notes the key's hash, in an LRU of at most
    {!plan_capacity} ints, so traffic whose plans never repeat costs
    the memo a few words per plan rather than a copy of each text. Each
    memo holds at most {!plan_capacity} (4096) plan texts, the session
    result cache's default capacity: a remembered plan pays off while
    its evaluation is cached. Their lengths sum to at most
    {!plan_text_budget} (32 MiB), least recently used plans making
    room, and a longer text is answered but not remembered. Beside each
    text the memo keeps that plan's diagnostics and built plan; once the
    plan is evaluated, the session's result cache keeps the same built
    plan, not a copy.

    The byte bound counts texts only; the ingests come on top. A memo
    of 4096 DT-large plans (4.2 KB of text each, 17 MB in all) holds
    31 MB, so its ingests add about 0.8 times the text. For plans of
    that shape one entry's memo holds at most about 58 MiB, and a pool
    of 8 entries (the server's default [pool_capacity]) at most about
    0.45 GiB. That comes beside each entry's system and session, whose
    result cache keeps up to 4096 evaluations: a [mcmap serve] whose
    one session has evaluated 4000 distinct DT-large plans, each sent
    once, peaks at about 175 MB of resident memory, with or without the
    memo.

    All operations are mutex-guarded; the returned sessions are safe to
    use from any worker domain ({!Mcmap_dse.Evaluator.eval} is
    domain-safe and [eval_population] serialises itself). Pool traffic
    is recorded through {!Mcmap_obs.Obs} as [serve.pool~hit],
    [serve.pool~miss], [serve.pool~evict] counters (one hit or miss per
    ingest) and a [serve.pool.size] gauge; memo traffic as
    [serve.plans~hit], [serve.plans~miss] and [serve.plans~evict] (one
    hit or miss per request with a plan text on a pooled system). *)

type t

val create : ?capacity:int -> ?domains:int -> unit -> t
(** [capacity] (default 8) bounds the number of live entries, and with
    them sessions; [domains] (default 1) is passed to each created
    session's [Evaluator.create].
    @raise Invalid_argument if [capacity < 1] or [domains < 1]. *)

val plan_capacity : int
(** The most plan texts one entry's memo holds: 4096. *)

val plan_text_budget : int
(** The bound on the summed lengths of one entry's remembered plan
    texts: 32 MiB. *)

val ingest :
  t ->
  no_lint:bool ->
  text:string ->
  string option ->
  Mcmap_lint.Diagnostic.t list
  * (Mcmap_dse.Evaluator.t
    * Mcmap_spec.Spec.system
    * Mcmap_hardening.Plan.t option)
    option
(** [ingest t ~no_lint ~text plan] is
    [Lint.ingest ~system_file:"system" ~plan_file:"plan" ~no_lint text
    plan] with the pooled session of the system beside the built model.
    The system half comes from the pool when [text] is pooled, and the
    plan half from the entry's memo when [plan] was seen with it under
    the same [no_lint]. A miss lints the system and pools it (possibly
    evicting the least recently used entry) when it built without an
    error for the request, and then takes the plan half as a hit does;
    otherwise it runs both halves as the cold path does. *)
