(** 128-bit structural fingerprints: two independently mixed 64-bit lanes
    (murmur3 finalisers over distinct odd multipliers), built by absorbing
    scalars one at a time. Used to key memoisation tables on canonical
    encodings of plans and job structures; equal encodings give equal
    fingerprints, and 2^-128 birthday odds make accidental collisions
    negligible — still, cache consumers should guard hits with a
    structural equality check when exactness is contractual. *)

type t = { lo : int64; hi : int64 }

val empty : t

(** {1 Accumulator}

    The one absorption core: every combinator below is [start], a fold
    of absorptions, then [finish], so a chain of absorptions through an
    accumulator gives bit-for-bit the value the same chain of combinator
    calls would. Absorbing allocates nothing; [start] and [finish]
    allocate the 16-byte state and the result. *)

type acc

val start : t -> acc
(** A fresh accumulator holding [t]. *)

val absorb_int : acc -> int -> unit

val absorb_bool : acc -> bool -> unit

val absorb_int_array : acc -> int array -> unit
(** Length-prefixed, positional: what {!int_array} absorbs. *)

val finish : acc -> t
(** The accumulator's current value; absorbing may continue after. *)

(** {1 Combinators} *)

val int : t -> int -> t

val int64 : t -> int64 -> t

val bool : t -> bool -> t

val float : t -> float -> t
(** Absorbs the IEEE-754 bit pattern, so [-0.] <> [0.] and NaNs compare
    by payload — exactly the bit-determinism contract of the caches. *)

val string : t -> string -> t

val int_array : t -> int array -> t
(** Length-prefixed, positional. *)

val combine : t -> t -> t
(** [combine parent sub] absorbs a finished fingerprint as a value. *)

val unordered_zero : t

val unordered_add : t -> t -> t
(** Commutative/associative aggregation of finished fingerprints
    (componentwise wrapping sum), for order-independent hashing of
    multisets; fold the aggregate back into a parent with {!combine}. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int
(** For [Hashtbl]-style consumers. *)

val to_hex : t -> string

val pp : Format.formatter -> t -> unit
