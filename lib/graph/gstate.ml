module Bitset = Fr_util.Bitset

type edge = Topology.edge

(* One journal entry per *effective* mutation, recording what rollback
   restores: an edge's old weight, or a disabled node to switch back on. *)
type undo =
  | Weight of int * float
  | Node_on of int

(* Version counter, journal and lifetime counters live in a [meta] record
   shared between a state and every read-only view of it, so a view sees
   exactly the parent's version history: a Dist_cache built over a view
   refuses lookups the moment the parent mutates, and vice versa. *)
type meta = {
  mutable ver : int;
  mutable journal : undo array;
  mutable jlen : int;
  mutable mutations : int;
  mutable rollbacks : int;
  mutable undone : int;
  mutable peak_depth : int;
}

type t = {
  topo : Topology.t;
  w : float array;
  n_on : Bitset.t;
  meta : meta;
  read_only : bool;
}

type checkpoint = int

let fresh_meta () =
  {
    ver = 0;
    journal = [||];
    jlen = 0;
    mutations = 0;
    rollbacks = 0;
    undone = 0;
    peak_depth = 0;
  }

let of_builder b =
  let topo = Wgraph.freeze b in
  {
    topo;
    w = Array.copy topo.Topology.base;
    n_on = Bitset.create (Topology.num_nodes topo);
    meta = fresh_meta ();
    read_only = false;
  }

let topology g = g.topo

let num_nodes g = Topology.num_nodes g.topo

let num_edges g = Topology.num_edges g.topo

let version g = g.meta.ver

let read_only_view g = { g with read_only = true }

let is_read_only g = g.read_only

(* Mutators check this first: a view shares the parent's arrays, so writing
   through one would be an unjournaled mutation of the parent — exactly the
   bug class views exist to turn into an exception. *)
let guard g what = if g.read_only then invalid_arg ("Gstate." ^ what ^ ": read-only view")

(* ------------------------------------------------------------------ *)
(* Journaled mutation                                                  *)
(* ------------------------------------------------------------------ *)

let jpush m entry =
  let cap = Array.length m.journal in
  if m.jlen = cap then begin
    let next = Array.make (if cap = 0 then 64 else 2 * cap) entry in
    Array.blit m.journal 0 next 0 m.jlen;
    m.journal <- next
  end;
  m.journal.(m.jlen) <- entry;
  m.jlen <- m.jlen + 1;
  if m.jlen > m.peak_depth then m.peak_depth <- m.jlen

let record g entry =
  let m = g.meta in
  jpush m entry;
  m.ver <- m.ver + 1;
  m.mutations <- m.mutations + 1

let weight g e = g.w.(e)

let set_weight g e w =
  guard g "set_weight";
  if w < 0. then invalid_arg "Gstate.set_weight: negative weight";
  let old = g.w.(e) in
  if old <> w then begin
    record g (Weight (e, old));
    g.w.(e) <- w
  end

let add_weight g e dw = set_weight g e (g.w.(e) +. dw)

let node_enabled g u = Bitset.get g.n_on u

let disable_node g u =
  guard g "disable_node";
  if u < 0 || u >= num_nodes g then invalid_arg "Gstate.disable_node: node out of range";
  if Bitset.get g.n_on u then begin
    record g (Node_on u);
    Bitset.set g.n_on u false
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint / rollback                                               *)
(* ------------------------------------------------------------------ *)

let checkpoint g = g.meta.jlen

let journal_depth g = g.meta.jlen

let check_mark g what cp =
  if cp < 0 || cp > g.meta.jlen then invalid_arg ("Gstate." ^ what ^ ": invalid checkpoint")

(* Undo one journal entry into the arrays [w] and [n_on]: the state's own
   on a rollback, a copy's in [copy_at]. *)
let undo_into w n_on = function
  | Weight (e, old) -> w.(e) <- old
  | Node_on u -> Bitset.set n_on u true

let rollback g cp =
  guard g "rollback";
  check_mark g "rollback" cp;
  let m = g.meta in
  let changed = m.jlen > cp in
  while m.jlen > cp do
    m.jlen <- m.jlen - 1;
    undo_into g.w g.n_on m.journal.(m.jlen);
    m.undone <- m.undone + 1
  done;
  m.rollbacks <- m.rollbacks + 1;
  if changed then m.ver <- m.ver + 1

(* The arrays are copied and the entries above the mark undone on the
   copy, newest first, so [g] and its journal are only read. *)
let copy_at g cp =
  check_mark g "copy_at" cp;
  let m = g.meta in
  let w = Array.copy g.w and n_on = Bitset.copy g.n_on in
  for i = m.jlen - 1 downto cp do
    undo_into w n_on m.journal.(i)
  done;
  { topo = g.topo; w; n_on; meta = fresh_meta (); read_only = false }

let commit g cp =
  guard g "commit";
  check_mark g "commit" cp;
  g.meta.jlen <- cp

let mutations g = g.meta.mutations

let rollbacks g = g.meta.rollbacks

let rollback_entries g = g.meta.undone

let peak_journal_depth g = g.meta.peak_depth

(* Per-call stats hygiene: a long-lived state (the serve daemon routes on
   one [Gstate] for its whole life) would otherwise report the lifetime
   high-water mark from every later call. *)
let reset_peak_journal_depth g = g.meta.peak_depth <- g.meta.jlen

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let endpoints g e = Topology.endpoints g.topo e

let other_end g e u =
  let a, b = Topology.endpoints g.topo e in
  if u = a then b
  else if u = b then a
  else invalid_arg "Gstate.other_end: node not an endpoint"

let iter_adj g u f =
  if Bitset.get g.n_on u then begin
    let off = g.topo.Topology.off and pack = g.topo.Topology.pack in
    let k = ref off.(u) in
    let hi = off.(u + 1) in
    while !k < hi do
      let v = pack.(!k) and e = pack.(!k + 1) in
      if Bitset.get g.n_on v then f e v g.w.(e);
      k := !k + 2
    done
  end

let fold_adj g u f acc =
  let acc = ref acc in
  iter_adj g u (fun e v w -> acc := f !acc e v w);
  !acc

let iter_edges g f =
  for e = 0 to num_edges g - 1 do
    let u, v = Topology.endpoints g.topo e in
    if Bitset.get g.n_on u && Bitset.get g.n_on v then f e u v g.w.(e)
  done

let mean_edge_weight g =
  let total = ref 0. and count = ref 0 in
  iter_edges g (fun _ _ _ w ->
      total := !total +. w;
      incr count);
  if !count = 0 then 0. else !total /. float_of_int !count

(* Hot-loop escape hatches: Dijkstra reads these arrays directly. *)

let unsafe_weights g = g.w

let unsafe_node_bits g = g.n_on
