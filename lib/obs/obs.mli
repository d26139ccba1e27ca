(** Zero-dependency observability: a metrics registry (counters, gauges,
    log-bucket histograms, integer-indexed series), lightweight nested
    spans on the monotonic clock, and exporters (s-expression metrics
    dump, Chrome trace-event JSON).

    {1 Labels}

    Every recording call takes an optional [?label] that adds one cheap
    attribution dimension: [incr ~label:"hit" "evaluator.result"]
    records under the derived key ["evaluator.result~hit"]. The derived
    key is an ordinary metric name — merges, exports and [mcmap stats]
    need no special handling — and it is built only on the enabled
    path, so a disabled labelled call costs exactly one load-and-branch.
    By convention labels are short enum-like atoms (["hit"], ["miss"],
    ["evict"], ["g3"]); the ['~'] separator never appears in unlabelled
    metric names.

    {1 Domain safety}

    Every domain records into a private buffer reached through
    domain-local storage. Each buffer has one mutex, taken only on the
    enabled path: by the buffer's own writers (a worker domain, or the
    systhreads that share one domain) and by {!snapshot}. A worker
    domain's lock is uncontended except against a snapshot, so workers
    spawned by {!Mcmap_util.Parallel.map_array} do not contend with
    each other. {!snapshot} is safe at any time from any thread, live
    writers included. It merges all buffers (including those of
    already-joined workers) with commutative and associative per-kind
    merges — counters add, histograms merge pointwise, series
    concatenate and sort, gauges take the maximum — so the merged
    metrics are identical whether the work ran on 1 or N domains
    (provided the recorded multiset of observations is itself
    deterministic, which pure parallel evaluation guarantees). Span
    nesting depth is tracked per domain, so concurrent spans from
    systhreads sharing one domain may report interleaved depths.

    When a domain exits, its buffer is folded into one shared buffer
    for all exited domains (with the same merges; spans keep their
    [tid]) and unlisted, so the number of buffers is bounded by the
    live domains plus one, however many short-lived domains have
    recorded.

    {1 Retention}

    Each buffer tail-keeps the newest 4096 points per series and the
    newest 8192 spans; to keep appends amortised O(1) it may hold up to
    twice that before truncating. {!snapshot} re-applies the series cap
    to the merged, x-sorted series. A long-running recorder (the
    [mcmap serve] daemon keeps two spans per request) therefore stays
    bounded. Spans are never dropped silently: every truncation adds
    to the counter [obs.spans_dropped], {!trace_to_json} reports it, and
    [mcmap --trace] warns on stderr.

    {1 Cost when disabled}

    Recording is globally gated on one atomic flag (off by default);
    a disabled call is a single load-and-branch that neither allocates
    nor takes a lock, and instrumented hot loops are expected to hoist
    [enabled ()] into a local so the per-iteration cost is a
    predictable branch on an immutable bool.

    Only [enable] and [reset] keep a threading contract: call them from
    one controlling thread at a time (normally the main domain), and
    [reset] only while no other thread records. *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t
  | Series of (int * float) list
      (** [(x, value)] points sorted by [x] after {!snapshot} *)

type span = {
  name : string;
  tid : int;  (** recording domain's id *)
  depth : int;  (** nesting depth within its domain, outermost = 0 *)
  ts_ns : int64;  (** start, relative to the {!enable}/{!reset} epoch *)
  dur_ns : int64;
}

type snapshot = {
  metrics : (string * metric) list;  (** sorted by name *)
  spans : span list;  (** sorted by start time *)
}

(** {1 Control} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start recording (and set the span epoch if recording was off). *)

val disable : unit -> unit
(** Stop recording; already-recorded data remains until {!reset}. *)

val reset : unit -> unit
(** Drop all recorded data and restart the span epoch. *)

val now_ns : unit -> int64
(** The raw monotonic clock (for callers timing their own series). *)

(** {1 Recording} *)

val incr : ?by:int -> ?label:string -> string -> unit
(** Add to a counter (default 1). *)

val gauge : ?label:string -> string -> float -> unit
(** Set a gauge (last write per domain wins; domains merge by max). *)

val observe : ?label:string -> string -> int -> unit
(** Add one observation to a histogram. *)

val series : ?label:string -> string -> x:int -> float -> unit
(** Append an [(x, value)] point to a series. Series keep at most 4096
    points: each domain tail-keeps that many per series (newest
    survive), and {!snapshot} re-applies the cap to the merged, x-sorted
    result. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] as a span (recorded when [f] returns or raises). When the
    {!Flight} recorder is armed, span open/close events are fed into
    its ring as well. When neither recorder is on this is exactly
    [f ()]. *)

(** {1 Export} *)

val snapshot : unit -> snapshot
(** Merge every domain's buffer into one view; callable at any time
    from any thread, while other threads record. Each buffer is read
    atomically, so every counter in a later snapshot is at least its
    value in an earlier one. *)

val metrics : unit -> (string * metric) list
(** The [metrics] half of {!snapshot} alone: no span is copied or
    sorted. *)

val spans_dropped : snapshot -> int
(** The [obs.spans_dropped] counter: spans the retention cap dropped
    before the snapshot was taken. *)

val metrics_to_sexp : snapshot -> Mcmap_util.Sexp.t
(** [(metrics (counter (name ...) (value ...)) ...)] — the format
    [mcmap stats] pretty-prints. *)

val metrics_of_sexp : Mcmap_util.Sexp.t -> (snapshot, string) result
(** Parse a {!metrics_to_sexp} dump ([spans] comes back empty). *)

val trace_to_json : snapshot -> Mcmap_util.Json.t
(** Chrome trace-event JSON (complete "X" events, microsecond
    timestamps) — loadable in chrome://tracing or Perfetto. When the
    retention cap dropped spans, [otherData.spans_dropped] says how
    many. *)

val write_metrics : ?snapshot:snapshot -> string -> unit
(** Write the s-expression metrics dump to a file (defaults to a fresh
    {!snapshot}). *)

val write_trace : ?snapshot:snapshot -> string -> unit
(** Write the Chrome trace JSON to a file. *)
