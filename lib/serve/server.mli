(** The [mcmap serve] daemon (DESIGN.md §14).

    One process serves many clients over a Unix-domain or TCP socket:

    - an {b acceptor} (the thread that called {!run}) accepts
      connections and spawns one reader systhread per connection;
    - {b readers} parse {!Mcmap_util.Wire} frames into
      {!Protocol.request}s, answer the control plane (ping, stats,
      shutdown) inline, and push the work plane (analyze, lint,
      eval-population) onto a bounded {!Bqueue} — or reject on the spot
      when the queue is full, the population is over budget, or the
      frame exceeded the limit;
    - a fixed pool of {b worker domains} pops jobs, enforces each
      request's queue deadline, runs lint/evaluation through the
      shared {!Pool} of evaluator sessions, and writes the response
      (frames to one connection are serialised by a per-connection
      lock, so out-of-order completion is safe).

    Shutdown (a [shutdown] request, or SIGINT/SIGTERM with
    [handle_signals]) is orderly and answer-complete: the acceptor
    stops, the queue closes and {e drains} — every job already accepted
    is still answered — workers join, readers are woken and join, and
    {!run} returns. New work arriving meanwhile is [Rejected], which is
    still a response: no frame that reached the server goes
    unanswered. *)

type config = {
  addr : Protocol.addr;
  workers : int;  (** worker domains (default 4) *)
  queue_capacity : int;  (** work-plane queue bound (default 64) *)
  pool_capacity : int;  (** evaluator sessions kept warm (default 8) *)
  session_domains : int;
      (** [domains] for each pooled session (default 1 — parallelism
          comes from concurrent requests, not within one) *)
  max_frame : int;  (** request frame byte limit *)
  max_population : int;
      (** plans per [eval-population] request (default 4096) *)
  default_deadline_ms : int option;
      (** queue deadline applied when a request carries none *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM handlers that trigger the same
          orderly shutdown as a [shutdown] request (default false) *)
}

val default_config : Protocol.addr -> config

val work :
  Pool.t -> no_lint:bool -> Protocol.request_body -> Protocol.response_body
(** The work plane's answer to one [analyze], [lint] or
    [eval-population] body, as a worker computes it once the request is
    off the queue: ingest through the pool (the system half from the
    pooled entry, the plan half from the entry's memo once the entry
    has seen the plan text; [lint] bodies are always linted), then
    evaluation on the pooled session. Refusals are
    [Error_response]s. A control-plane body answers an internal
    [Error_response]; {!run} never queues one. *)

val run : ?on_ready:(Protocol.addr -> unit) -> config -> unit
(** Bind, serve, block until shutdown, release every resource (the
    socket file of a Unix-domain address is unlinked). [on_ready] is
    called once listening, with the bound address — for TCP port 0
    this carries the actual port, which is how tests serve on an
    ephemeral port.

    The server records every [serve.*] metric through
    {!Mcmap_obs.Obs}, which it turns on for its lifetime and off again
    at shutdown only if it was the one that turned it on; a [stats]
    request answers with every live metric ({!Mcmap_obs.Obs.metrics}).
    @raise Unix.Unix_error when the address cannot be bound. *)
