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

let words t = t.words

let mem t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let check_pair name a b =
  if a.capacity <> b.capacity then
    invalid_arg ("Bitset." ^ name ^ ": capacity mismatch")

let union_into ~dst src =
  check_pair "union_into" dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
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
