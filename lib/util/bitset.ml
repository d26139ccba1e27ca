(* Dense int-array bitsets. 63 bits per word: [i / 63] selects the word
   and [i mod 63] the bit, matching the layout the reference bounds
   analysis uses internally, so charged-set dumps from both engines line
   up word for word when debugging. *)

type t = {
  capacity : int;
  words : int array;
}

let bits_per_word = 63

let n_words capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (n_words capacity) 0 }

let capacity t = t.capacity

let words t = t.words

let mem t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount word =
  let x = ref word and n = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

let cardinal t =
  let total = ref 0 in
  Array.iter (fun w -> total := !total + popcount w) t.words;
  !total

let check_pair name a b =
  if a.capacity <> b.capacity then
    invalid_arg ("Bitset." ^ name ^ ": capacity mismatch")

(* A top-level loop rather than a local closure over [a] and [b]: the
   closure would be allocated on every call. *)
let rec words_equal (a : int array) b i =
  i < 0
  || (Array.unsafe_get a i = Array.unsafe_get b i && words_equal a b (i - 1))

let equal a b =
  check_pair "equal" a b;
  (* Word-by-word int comparison: the generic structural equality on the
     arrays costs a polymorphic-compare call, and [equal] sits inside
     the flat kernel's per-job sweep. *)
  words_equal a.words b.words (Array.length a.words - 1)

let blit ~src ~dst =
  check_pair "blit" src dst;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let union_into ~dst src =
  check_pair "union_into" dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into ~dst src =
  check_pair "inter_into" dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    (* Peel set bits low-to-high so members come out ascending. *)
    while !word <> 0 do
      let low = !word land -(!word) in
      let bit =
        (* log2 of the isolated lowest bit *)
        let rec go b v = if v = 1 then b else go (b + 1) (v lsr 1) in
        go 0 low in
      f ((w * bits_per_word) + bit);
      word := !word land (!word - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity members =
  let t = create capacity in
  List.iter
    (fun i ->
      if i < 0 || i >= capacity then
        invalid_arg "Bitset.of_list: member out of range";
      add t i)
    members;
  t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements t)))
