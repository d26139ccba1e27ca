(** The server's session pool: one entry per distinct system text,
    shared by every connection and worker that sends that text, with
    bounded LRU eviction of cold entries.

    An entry holds what a served system needs once, whatever the plan:

    - the built {!Mcmap_spec.Spec.system};
    - its lint diagnostics (the system half of
      {!Mcmap_lint.Lint.ingest}'s gate), taken on the first linted
      request for the text;
    - one {!Mcmap_dse.Evaluator} session.

    A request whose text is pooled runs only the plan half of the gate
    ({!Mcmap_lint.Lint.ingest_plan}): the plan is linted against the
    pooled system, or with [(no-lint)] only parsed and built. Answers
    are byte-identical to the cold {!Mcmap_lint.Lint.ingest} path.

    Entries are keyed by the system text the request's ingest already
    printed, so the pool never prints the system again. Keys compare as
    whole strings, which is the collision guard: the same text always
    builds the same system and draws the same diagnostics, and a
    different text is a different entry. A system whose forms arrive in
    a different order is therefore its own entry — a pool miss, never a
    wrong answer.

    Only systems that build without an error diagnostic are pooled. A
    [(no-lint)] request pools a buildable system unlinted; a later
    linted request on that text lints it once, keeps the diagnostics,
    and is refused if they hold an error — a system with lint errors is
    never evaluated for a linted request.

    All operations are mutex-guarded; the returned sessions are safe to
    use from any worker domain ({!Mcmap_dse.Evaluator.eval} is
    domain-safe and [eval_population] serialises itself). Pool traffic
    is recorded through {!Mcmap_obs.Obs} as [serve.pool~hit],
    [serve.pool~miss], [serve.pool~evict] counters (one hit or miss per
    ingest) and a [serve.pool.size] gauge. *)

type t

val create : ?capacity:int -> ?domains:int -> unit -> t
(** [capacity] (default 8) bounds the number of live entries, and with
    them sessions; [domains] (default 1) is passed to each created
    session's [Evaluator.create].
    @raise Invalid_argument if [capacity < 1] or [domains < 1]. *)

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
    The system half comes from the pool when [text] is pooled; a miss
    runs it, and pools the system (possibly evicting the least recently
    used entry) when it built without an error. *)
