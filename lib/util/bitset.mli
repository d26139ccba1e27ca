(** Dense fixed-capacity bitsets over [0 .. capacity - 1], backed by an
    [int array] (63 usable bits per word on 64-bit systems).

    The flat scheduling kernel builds its per-job relatedness and
    interference-candidate rows with these sets once per context and
    then reads their words ({!words}) in its fixed-point sweep. Every
    operation here is allocation-free. {!union_into} requires equal
    capacities and raises [Invalid_argument] otherwise — a capacity
    mismatch is always a caller bug, never data. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0 .. capacity - 1].
    @raise Invalid_argument if [capacity < 0]. *)

val words : t -> int array
(** The backing words (bit [i] of the set is bit [i mod 63] of word
    [i / 63]; bits at positions [>= capacity] are always zero). Exposed
    so the flat kernel can fuse set-difference iteration into its sweep
    without allocating a closure per job. Treat as read-only — mutate
    through the operations below. *)

val mem : t -> int -> bool
(** No bounds check beyond the backing array's: callers index with
    member candidates [0 <= i < capacity] by construction. *)

val add : t -> int -> unit

val union_into : dst:t -> t -> unit
(** [dst <- dst ∪ src].
    @raise Invalid_argument on a capacity mismatch. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)
