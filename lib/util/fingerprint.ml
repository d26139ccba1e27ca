type t = { lo : int64; hi : int64 }

(* Murmur3's 64-bit finaliser: a bijective avalanche mix. *)
let[@inline] mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xff51afd7ed558ccdL in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  let z = Int64.mul z 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

(* The two lanes absorb the same values premultiplied by different odd
   constants, so a collision requires both independent mixes to agree. *)
let lane_a = 0x9e3779b97f4a7c15L (* golden-ratio increment (splitmix64) *)

let lane_b = 0xd1b54a32d192ed03L

(* The one absorption core. The running state lives in 16 bytes (lane
   [lo] at offset 0, [hi] at offset 8), read and written as raw int64s,
   so absorbing a value boxes nothing; every combinator below is a fold
   of [absorb] between one [start] and one [finish]. *)
type acc = Bytes.t

let[@inline] absorb (acc : acc) v =
  let lo = Bytes.get_int64_ne acc 0 and hi = Bytes.get_int64_ne acc 8 in
  Bytes.set_int64_ne acc 0 (mix64 (Int64.add (Int64.logxor lo v) lane_a));
  Bytes.set_int64_ne acc 8
    (mix64 (Int64.add (Int64.logxor hi (Int64.mul v lane_b)) lane_b))

let start t =
  let acc = Bytes.create 16 in
  Bytes.set_int64_ne acc 0 t.lo;
  Bytes.set_int64_ne acc 8 t.hi;
  acc

let finish (acc : acc) =
  { lo = Bytes.get_int64_ne acc 0; hi = Bytes.get_int64_ne acc 8 }

let[@inline] absorb_int acc v = absorb acc (Int64.of_int v)

let[@inline] absorb_bool acc v = absorb acc (if v then 1L else 2L)

let empty = { lo = 0x243f6a8885a308d3L; hi = 0x13198a2e03707344L }

let int64 t v =
  let acc = start t in
  absorb acc v;
  finish acc

let int t v =
  let acc = start t in
  absorb_int acc v;
  finish acc

let bool t v =
  let acc = start t in
  absorb_bool acc v;
  finish acc

let float t v = int64 t (Int64.bits_of_float v)

let string t s =
  let acc = start t in
  absorb_int acc (String.length s);
  for i = 0 to String.length s - 1 do
    absorb_int acc (Char.code (String.unsafe_get s i))
  done;
  finish acc

let absorb_int_array acc a =
  absorb_int acc (Array.length a);
  for i = 0 to Array.length a - 1 do
    absorb_int acc (Array.unsafe_get a i)
  done

let int_array t a =
  let acc = start t in
  absorb_int_array acc a;
  finish acc

let combine t sub =
  let acc = start t in
  absorb acc sub.lo;
  absorb acc sub.hi;
  finish acc

(* Commutative monoid for order-independent aggregation: componentwise
   wrapping sums of already-mixed fingerprints. Fold the result back into
   a parent with {!combine}. *)
let unordered_zero = { lo = 0L; hi = 0L }

let unordered_add a b = { lo = Int64.add a.lo b.lo; hi = Int64.add a.hi b.hi }

let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi

let compare a b =
  match Int64.compare a.lo b.lo with
  | 0 -> Int64.compare a.hi b.hi
  | c -> c

let hash t = Int64.to_int t.lo

let to_hex t = Format.asprintf "%016Lx%016Lx" t.hi t.lo

let pp ppf t = Format.pp_print_string ppf (to_hex t)
