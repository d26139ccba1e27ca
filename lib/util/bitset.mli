(** Dense fixed-capacity bitsets over [0 .. capacity - 1], backed by an
    [int array] (63 usable bits per word on 64-bit systems).

    The flat scheduling kernel builds its per-job relatedness and
    interference-candidate rows with these sets and reads their words
    ({!words}) in its fixed-point sweep. Every operation here is
    allocation-free: sets are created once and cleared / blitted /
    intersected in place afterwards. Operations that
    combine two sets require equal capacities and raise
    [Invalid_argument] otherwise — a capacity mismatch is always a
    caller bug, never data. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0 .. capacity - 1].
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int

val words : t -> int array
(** The backing words (bit [i] of the set is bit [i mod 63] of word
    [i / 63]; bits at positions [>= capacity] are always zero). Exposed
    so the flat kernel can fuse set-difference iteration into its sweep
    without allocating a closure per job. Treat as read-only — mutate
    through the operations above. *)

val mem : t -> int -> bool
(** No bounds check beyond the backing array's: callers index with
    member candidates [0 <= i < capacity] by construction. *)

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Remove every member (in place, no allocation). *)

val is_empty : t -> bool

val cardinal : t -> int

val equal : t -> t -> bool
(** Equality of members; requires equal capacities.
    @raise Invalid_argument on a capacity mismatch. *)

val blit : src:t -> dst:t -> unit
(** [dst] becomes a copy of [src].
    @raise Invalid_argument on a capacity mismatch. *)

val union_into : dst:t -> t -> unit
(** [dst <- dst ∪ src].
    @raise Invalid_argument on a capacity mismatch. *)

val inter_into : dst:t -> t -> unit
(** [dst <- dst ∩ src].
    @raise Invalid_argument on a capacity mismatch. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] over members in ascending order — the order is part
    of the contract (deterministic replay of charged-set traversals). *)

val elements : t -> int list
(** Members in ascending order. *)

val of_list : int -> int list -> t
(** [of_list capacity members].
    @raise Invalid_argument if some member is outside
    [0 .. capacity - 1]. *)

val pp : Format.formatter -> t -> unit
