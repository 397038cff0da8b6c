(* Entries live in four parallel arrays (structure of arrays), so the keys
   are unboxed floats and ints and moving an entry allocates nothing.
   Entries are ordered by (prio, tie, seq) lexicographically; [seq] is a
   per-heap push counter, so full ties pop in FIFO order and the popped
   sequence is a pure function of the push sequence. *)
type t = {
  mutable prio : float array;
  mutable tie : float array;
  mutable seq : int array;
  mutable data : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  {
    prio = Array.make capacity 0.;
    tie = Array.make capacity 0.;
    seq = Array.make capacity 0;
    data = Array.make capacity 0;
    len = 0;
    next_seq = 0;
  }

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.prio in
  let ncap = 2 * cap in
  let prio = Array.make ncap 0.
  and tie = Array.make ncap 0.
  and seq = Array.make ncap 0
  and data = Array.make ncap 0 in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.tie 0 tie 0 h.len;
  Array.blit h.seq 0 seq 0 h.len;
  Array.blit h.data 0 data 0 h.len;
  h.prio <- prio;
  h.tie <- tie;
  h.seq <- seq;
  h.data <- data

(* Strict (prio, tie, seq) order, written with [<] only so float NaN never
   reaches a polymorphic comparison. *)
let[@inline] before (p1 : float) (t1 : float) (s1 : int) p2 t2 s2 =
  if p1 < p2 then true
  else if p2 < p1 then false
  else if t1 < t2 then true
  else if t2 < t1 then false
  else s1 < s2

let[@inline] before_slot h i j =
  before h.prio.(i) h.tie.(i) h.seq.(i) h.prio.(j) h.tie.(j) h.seq.(j)

let[@inline] move h ~src ~dst =
  h.prio.(dst) <- h.prio.(src);
  h.tie.(dst) <- h.tie.(src);
  h.seq.(dst) <- h.seq.(src);
  h.data.(dst) <- h.data.(src)

let[@inline] store h i p t s x =
  h.prio.(i) <- p;
  h.tie.(i) <- t;
  h.seq.(i) <- s;
  h.data.(i) <- x

(* Both sifts move a hole instead of swapping: entries that order after
   the one being placed shift one level, and the placed entry is written
   once, at its final slot. *)
let push h prio tie x =
  let cap = Array.length h.prio in
  if h.len = cap then grow h;
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let i = ref h.len in
  h.len <- h.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before prio tie s h.prio.(parent) h.tie.(parent) h.seq.(parent) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  store h !i prio tie s x

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.data.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Re-seat the last entry, sifting the root's hole down. *)
    let p = h.prio.(last) and t = h.tie.(last) and s = h.seq.(last) and x = h.data.(last) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= last then sinking := false
      else begin
        let c = if l + 1 < last && before_slot h (l + 1) l then l + 1 else l in
        if before h.prio.(c) h.tie.(c) h.seq.(c) p t s then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    store h !i p t s x
  end;
  top
