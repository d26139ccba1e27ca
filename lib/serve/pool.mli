(** The server's session pool: one {!Mcmap_dse.Evaluator} session per
    distinct system, shared by every connection and worker that asks
    for that system, with bounded LRU eviction of cold sessions.

    Sessions are keyed by the system text the request's ingest already
    printed, so the pool never prints the system again. Keys compare as
    whole strings, which is the collision guard: the same text always
    builds the same system, and a different text is a different
    session. A system whose forms arrive in a different order is
    therefore its own session — a pool miss, never a wrong answer.

    All operations are mutex-guarded; the returned sessions are safe to
    use from any worker domain ({!Mcmap_dse.Evaluator.eval} is
    domain-safe and [eval_population] serialises itself). Pool traffic
    is recorded through {!Mcmap_obs.Obs} as [serve.pool~hit],
    [serve.pool~miss], [serve.pool~evict] counters and a
    [serve.pool.size] gauge. *)

type t

val create : ?capacity:int -> ?domains:int -> unit -> t
(** [capacity] (default 8) bounds the number of live sessions;
    [domains] (default 1) is passed to each created session's
    [Evaluator.create].
    @raise Invalid_argument if [capacity < 1] or [domains < 1]. *)

val session :
  t -> text:string -> Mcmap_spec.Spec.system -> Mcmap_dse.Evaluator.t
(** The pooled session for the system built from [text], creating (and
    possibly evicting the least recently used) on miss. *)
