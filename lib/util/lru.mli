(** Bounded least-recently-used cache: a hash table over an intrusive
    doubly-linked recency list, O(1) lookup/insert/evict. Keys use
    polymorphic hashing/equality. Not thread-safe — callers that share a
    cache across domains must hold their own lock. *)

type ('k, 'v) t

val create : capacity:int -> unit -> ('k, 'v) t
(** Capacity 0 gives an always-empty cache ([add] is a no-op), the
    conventional way to disable a cache without branching at call sites.
    @raise Invalid_argument on negative capacity. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most recently used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not touch recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces, marking the entry most recently used; evicts the
    least recently used entry when over capacity. *)

val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Total entries evicted since creation. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Removes and returns the least recently used binding, counted as an
    eviction; [None] when the cache is empty. *)

val clear : ('k, 'v) t -> unit
(** Drops all entries (eviction counter is kept). *)
