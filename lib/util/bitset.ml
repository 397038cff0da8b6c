(* Packed bit vector over an int array.  16 bits per word keeps the shift
   arithmetic valid on every OCaml int width while staying a single load +
   mask per access — the enable flags of the routing substrate live here. *)

type t = {
  words : int array;
  size : int;
}

let bits_per_word = 16

let shift = 4

let mask = 15

let words_for n = (n + bits_per_word - 1) lsr shift

let create ?(value = true) n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { words = Array.make (max 1 (words_for n)) (if value then 0xFFFF else 0); size = n }

let length t = t.size

let copy t = { t with words = Array.copy t.words }

let unsafe_words t = t.words

let get t i = (Array.unsafe_get t.words (i lsr shift) lsr (i land mask)) land 1 = 1

let set t i b =
  let w = i lsr shift and bit = 1 lsl (i land mask) in
  let cur = Array.unsafe_get t.words w in
  Array.unsafe_set t.words w (if b then cur lor bit else cur land lnot bit)
