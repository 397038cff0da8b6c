module Bitset = Fr_util.Bitset

(* Resumption state: everything needed to settle more nodes later.  The
   dist/parent arrays of the owning [result] are refined in place, so a
   partial run transparently *extends* into a full one.

   [tag] does the work of both a settled set and a per-lookup target set.
   [tag.(v)] is [settled_tag] once v is settled; otherwise it is the epoch
   of the last lookup that listed v as a target (0: none).  A lookup bumps
   [epoch], tags each distinct unsettled target and counts them in
   [pending]; settling a node that carries the current epoch decrements
   the count, and the drain stops when it reaches zero.  Duplicates and
   already-settled targets count nothing, a lookup costs O(|targets|), and
   nothing is allocated per lookup.

   The frontier is the search's own binary min-heap, kept in parallel slot
   arrays: slot i holds node [qnode.(i)] under the key
   [(qf.(i), qg.(i), qseq.(i))], and [slot.(v)] is the slot of queued node
   v.  A node is queued exactly when its dist is finite and it is not
   settled, so [slot] needs no sentinel.  Each node has one entry at most:
   a strictly shorter path to a queued node re-keys its entry in place
   (decrease-key) instead of pushing a duplicate (see [drain]). *)
type state = {
  g : Gstate.t;
  ver : int;  (* Gstate.version at creation; resuming after a mutation is unsound *)
  restrict : Bitset.t option;
      (* one bit per node, consulted only when relaxing; the source,
         always allowed, settles before any relaxation *)
  edge_ok : (Gstate.edge -> bool) option;
  future : (int -> float) option;
  mutable h_evals : int;
  tag : int array;
  mutable epoch : int;
  mutable pending : int;
  mutable settled_count : int;
  mutable exhausted : bool;
  mutable qf : float array;
  mutable qg : float array;
  mutable qseq : int array;
  mutable qnode : int array;
  mutable qlen : int;
  mutable next_seq : int;
  slot : int array;
}

let settled_tag = -1

type result = {
  src : int;
  dist : float array;
  parent_edge : int array;
  state : state;
}

let settled_count r = r.state.settled_count

let future_cost_evals r = r.state.h_evals

(* The kernel reads with unsafe gets, so every public entry that takes a
   node checks it first; [what] names the entry in the error. *)
let check_node r ~what v =
  if v < 0 || v >= Array.length r.dist then invalid_arg ("Dijkstra." ^ what ^ ": node out of range")

let is_settled r v =
  check_node r ~what:"is_settled" v;
  Array.unsafe_get r.state.tag v = settled_tag

let complete r = r.state.exhausted

(* Bit [i] of a {!Bitset}'s word array (layout in bitset.mli), tested in
   this module so the drain's per-edge tests inline. *)
let[@inline] bit words i = (Array.unsafe_get words (i lsr 4) lsr (i land 15)) land 1 = 1

(* Strict (f, g, seq) order, written with [<] only so float NaN never
   reaches a polymorphic comparison. *)
let[@inline] before (f1 : float) (g1 : float) (s1 : int) f2 g2 s2 =
  if f1 < f2 then true
  else if f2 < f1 then false
  else if g1 < g2 then true
  else if g2 < g1 then false
  else s1 < s2

let grow st =
  let cap = Array.length st.qnode in
  let ncap = 2 * cap in
  let qf = Array.make ncap 0.
  and qg = Array.make ncap 0.
  and qseq = Array.make ncap 0
  and qnode = Array.make ncap 0 in
  Array.blit st.qf 0 qf 0 cap;
  Array.blit st.qg 0 qg 0 cap;
  Array.blit st.qseq 0 qseq 0 cap;
  Array.blit st.qnode 0 qnode 0 cap;
  st.qf <- qf;
  st.qg <- qg;
  st.qseq <- qseq;
  st.qnode <- qnode

(* Both sifts take the entry already written at slot [i] and move a hole
   instead of swapping: entries that order after it shift one level (their
   [slot] entries follow), and it is written once, at its final slot.  Only
   ints cross the call, so no key is boxed. *)
let sift_up st i =
  let qf = st.qf and qg = st.qg and qseq = st.qseq and qnode = st.qnode and slot = st.slot in
  let kf = Array.unsafe_get qf i
  and kg = Array.unsafe_get qg i
  and ks = Array.unsafe_get qseq i
  and v = Array.unsafe_get qnode i in
  let i = ref i and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if before kf kg ks (Array.unsafe_get qf p) (Array.unsafe_get qg p) (Array.unsafe_get qseq p)
    then begin
      let u = Array.unsafe_get qnode p in
      Array.unsafe_set qf !i (Array.unsafe_get qf p);
      Array.unsafe_set qg !i (Array.unsafe_get qg p);
      Array.unsafe_set qseq !i (Array.unsafe_get qseq p);
      Array.unsafe_set qnode !i u;
      Array.unsafe_set slot u !i;
      i := p
    end
    else rising := false
  done;
  let i = !i in
  Array.unsafe_set qf i kf;
  Array.unsafe_set qg i kg;
  Array.unsafe_set qseq i ks;
  Array.unsafe_set qnode i v;
  Array.unsafe_set slot v i

let sift_down st i =
  let qf = st.qf and qg = st.qg and qseq = st.qseq and qnode = st.qnode and slot = st.slot in
  let len = st.qlen in
  let kf = Array.unsafe_get qf i
  and kg = Array.unsafe_get qg i
  and ks = Array.unsafe_get qseq i
  and v = Array.unsafe_get qnode i in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= len then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < len
          && before (Array.unsafe_get qf r) (Array.unsafe_get qg r) (Array.unsafe_get qseq r)
               (Array.unsafe_get qf l) (Array.unsafe_get qg l) (Array.unsafe_get qseq l)
        then r
        else l
      in
      if before (Array.unsafe_get qf c) (Array.unsafe_get qg c) (Array.unsafe_get qseq c) kf kg ks
      then begin
        let u = Array.unsafe_get qnode c in
        Array.unsafe_set qf !i (Array.unsafe_get qf c);
        Array.unsafe_set qg !i (Array.unsafe_get qg c);
        Array.unsafe_set qseq !i (Array.unsafe_get qseq c);
        Array.unsafe_set qnode !i u;
        Array.unsafe_set slot u !i;
        i := c
      end
      else sinking := false
    end
  done;
  let i = !i in
  Array.unsafe_set qf i kf;
  Array.unsafe_set qg i kg;
  Array.unsafe_set qseq i ks;
  Array.unsafe_set qnode i v;
  Array.unsafe_set slot v i

(* Key node [v] at [(f, g)] under the next seq: in its own slot when it is
   already queued, in a new last slot otherwise. *)
let[@inline] enqueue st ~queued v f g =
  let i =
    if queued then Array.unsafe_get st.slot v
    else begin
      let i = st.qlen in
      let cap = Array.length st.qnode in
      if i = cap then grow st;
      st.qlen <- i + 1;
      i
    end
  in
  Array.unsafe_set st.qf i f;
  Array.unsafe_set st.qg i g;
  Array.unsafe_set st.qseq i st.next_seq;
  Array.unsafe_set st.qnode i v;
  st.next_seq <- st.next_seq + 1;
  sift_up st i

(* Remove the minimum entry and return its node. *)
let pop st =
  let top = Array.unsafe_get st.qnode 0 in
  let last = st.qlen - 1 in
  st.qlen <- last;
  if last > 0 then begin
    Array.unsafe_set st.qf 0 (Array.unsafe_get st.qf last);
    Array.unsafe_set st.qg 0 (Array.unsafe_get st.qg last);
    Array.unsafe_set st.qseq 0 (Array.unsafe_get st.qseq last);
    Array.unsafe_set st.qnode 0 (Array.unsafe_get st.qnode last);
    sift_down st 0
  end;
  top

(* Settle nodes in frontier order until the current lookup has no
   pending target left (see [state]), the head's key reaches [below], or
   the frontier runs dry.  [below] bounds plain searches only; every
   other caller passes [infinity], which never stops a drain (a
   heuristic may key a node at [infinity]).  The inner
   loop walks the CSR arrays of the frozen topology directly — no closure
   per edge, no bounds checks — which is the point of the Topology/Gstate
   split; the node enable bits and the restriction are tested on their
   word arrays, and the frontier is this module's own, so settling a node
   makes no call into another module except the heuristic's.

   Frontier keys are f = g + h (plain g when no heuristic), with the true
   distance g as tie and a sequence number breaking full ties, so pops
   follow strict (f, g, seq) order.  Under an admissible *and consistent*
   h every edge satisfies h(u) <= w(u,v) + h(v), hence f never decreases
   along a shortest path and a node's first pop carries its final g — the
   settled-prefix-is-final invariant survives goal-direction unchanged
   (argument in DESIGN.md §4.8).  [dist] always stores g, never f.

   A strict improvement of a queued node re-keys its one entry and sifts
   it up, under a fresh seq from the same counter a new entry draws from.
   Its key only falls (g drops strictly, h(v) is fixed), so the sift-up
   restores the heap.  A lazy-deletion heap that pushed a duplicate
   instead would hold, besides stale entries, exactly these keys — the
   same f, g and seq — and the order is total, so it would settle the same
   node at every step: the settle order, the targeted stop and both
   counters are those of that heap, minus the stale pops.

   Relaxation is canonical: a strictly shorter path replaces dist and
   parent; an *equally* short path re-points the parent at the smaller
   edge id without re-keying (same g, same f — the queued entry is still
   correctly keyed).  Every optimal predecessor of v pops before v does
   (its f is <= v's by consistency, and its g is strictly smaller since
   weights are positive, so the (f, g, seq) order places it first), so
   after v settles its parent is the minimum-edge-id optimal predecessor —
   a pure graph property, independent of whether a heuristic was
   supplied.  That is what keeps routed trees bit-identical across A*
   on/off. *)
let drain r ~below =
  let st = r.state in
  let capped = below < infinity in
  let topo = Gstate.topology st.g in
  let off = topo.Topology.off and pack = topo.Topology.pack in
  let wts = Gstate.unsafe_weights st.g in
  let n_on = Bitset.unsafe_words (Gstate.unsafe_node_bits st.g) in
  let region = match st.restrict with None -> None | Some b -> Some (Bitset.unsafe_words b) in
  let tag = st.tag and edge_ok = st.edge_ok in
  let dist = r.dist and parent_edge = r.parent_edge in
  let running = ref true in
  while !running do
    if st.qlen = 0 then begin
      st.exhausted <- true;
      running := false
    end
    else if capped && Array.unsafe_get st.qf 0 >= below then running := false
    else begin
      (* One entry per node: the popped node is unsettled, and
         dist.(u) = g(u) is final. *)
      let u = pop st in
      let tag_u = Array.unsafe_get tag u in
      Array.unsafe_set tag u settled_tag;
      st.settled_count <- st.settled_count + 1;
      let d = Array.unsafe_get dist u in
      if bit n_on u then begin
        let k = ref (Array.unsafe_get off u) in
        let hi = Array.unsafe_get off (u + 1) in
        while !k < hi do
          let v = Array.unsafe_get pack !k in
          let e = Array.unsafe_get pack (!k + 1) in
          if
            bit n_on v
            && Array.unsafe_get tag v <> settled_tag
            && (match region with None -> true | Some words -> bit words v)
            && match edge_ok with None -> true | Some p -> p e
          then begin
            let nd = d +. Array.unsafe_get wts e in
            let dv = Array.unsafe_get dist v in
            if nd < dv then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent_edge v e;
              let f =
                match st.future with
                | None -> nd
                | Some h ->
                    st.h_evals <- st.h_evals + 1;
                    nd +. h v
              in
              enqueue st ~queued:(dv < infinity) v f nd
            end
            else if nd <= dv && e < Array.unsafe_get parent_edge v then
              (* nd = dv: same g, same f — canonicalize the parent to the
                 smallest edge id, no re-key needed. *)
              Array.unsafe_set parent_edge v e
          end;
          k := !k + 2
        done
      end;
      if tag_u = st.epoch then begin
        st.pending <- st.pending - 1;
        if st.pending = 0 then running := false
      end
    end
  done

(* [what] names the public entry point that needed to resume, so a
   staleness error points at the call that actually tripped it. *)
let check_resumable st what =
  let ver = Gstate.version st.g in
  if ver <> st.ver then
    invalid_arg ("Dijkstra." ^ what ^ ": graph mutated since the run started")

(* Open a lookup: a fresh epoch with nothing pending.  No node carries the
   new epoch yet, so draining right away runs to exhaustion. *)
let begin_lookup st =
  st.epoch <- st.epoch + 1;
  st.pending <- 0

let add_target st v =
  let t = Array.unsafe_get st.tag v in
  if t <> settled_tag && t <> st.epoch then begin
    Array.unsafe_set st.tag v st.epoch;
    st.pending <- st.pending + 1
  end

let extend_all r =
  let st = r.state in
  if not st.exhausted then begin
    check_resumable st "extend_all";
    begin_lookup st;
    drain r ~below:infinity
  end

(* A named recursion rather than [List.iter] with a closure, so a lookup
   allocates nothing. *)
let rec add_targets st ~what ~n = function
  | [] -> ()
  | v :: rest ->
      if v < 0 || v >= n then invalid_arg ("Dijkstra." ^ what ^ ": target out of range");
      add_target st v;
      add_targets st ~what ~n rest

let extend_from r ~what ~targets =
  let st = r.state in
  if not st.exhausted then begin
    begin_lookup st;
    add_targets st ~what ~n:(Array.length r.dist) targets;
    if st.pending > 0 then begin
      check_resumable st what;
      drain r ~below:infinity
    end
  end

let extend r ~targets = extend_from r ~what:"extend" ~targets

(* A plain frontier's key is the true distance, so settling "below
   [bound]" is one drain that stops when the head's key reaches it; a
   [target] (none when negative) stops it sooner, as any lookup's target
   does. *)
let drain_below r ~what ~target bound =
  let st = r.state in
  if Option.is_some st.future then invalid_arg ("Dijkstra." ^ what ^ ": goal-directed search");
  if st.qlen > 0 && Array.unsafe_get st.qf 0 < bound then begin
    begin_lookup st;
    if target >= 0 then add_target st target;
    if target < 0 || st.pending > 0 then begin
      check_resumable st what;
      drain r ~below:bound
    end
  end

let extend_below r bound = drain_below r ~what:"extend_below" ~target:(-1) bound

let extend_toward r ~target ~below =
  check_node r ~what:"extend_toward" target;
  drain_below r ~what:"extend_toward" ~target below

(* Every queued key of a plain search is at most the final distance of
   every node not yet settled, so an entry no larger than the head's key
   is already the full run's value; with the frontier empty, every entry
   is. *)
let is_final r v =
  check_node r ~what:"is_final" v;
  let st = r.state in
  Array.unsafe_get st.tag v = settled_tag
  || st.qlen = 0
  || (Option.is_none st.future && Array.unsafe_get r.dist v <= Array.unsafe_get st.qf 0)

let initial_capacity = 64

let run ?restrict ?edge_ok ?targets ?future_cost g ~src =
  let n = Gstate.num_nodes g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.run: bad source";
  (match restrict with
  | Some b when not (Int.equal (Bitset.length b) n) ->
      invalid_arg "Dijkstra.run: restriction size mismatch"
  | _ -> ());
  let state =
    {
      g;
      ver = Gstate.version g;
      restrict;
      edge_ok;
      future = future_cost;
      h_evals = 0;
      tag = Array.make n 0;
      epoch = 0;
      pending = 0;
      settled_count = 0;
      exhausted = false;
      qf = Array.make initial_capacity 0.;
      qg = Array.make initial_capacity 0.;
      qseq = Array.make initial_capacity 0;
      qnode = Array.make initial_capacity 0;
      qlen = 0;
      next_seq = 0;
      slot = Array.make n 0;
    }
  in
  let r = { src; dist = Array.make n infinity; parent_edge = Array.make n (-1); state } in
  r.dist.(src) <- 0.;
  let f0 =
    match future_cost with
    | None -> 0.
    | Some h ->
        state.h_evals <- 1;
        h src
  in
  enqueue state ~queued:false src f0 0.;
  (match targets with
  | None -> extend_all r
  | Some ts -> extend_from r ~what:"run" ~targets:ts);
  r

(* Accessors settle on demand, so a targeted result answers queries beyond
   its original targets exactly like a full run would.  This holds under a
   heuristic too: consistency makes every settled node's g exact whatever
   the original target set was — h only shapes the settling *order*. *)
let ensure r ~what v =
  check_node r ~what v;
  let st = r.state in
  if not (st.exhausted || Array.unsafe_get st.tag v = settled_tag) then begin
    check_resumable st what;
    begin_lookup st;
    add_target st v;
    drain r ~below:infinity
  end

let dist r v =
  ensure r ~what:"dist" v;
  r.dist.(v)

let reachable r v =
  ensure r ~what:"reachable" v;
  r.dist.(v) < infinity

(* A node's tree parent is the other endpoint of its parent edge. *)
let parent r v =
  let topo = Gstate.topology r.state.g in
  let e = r.parent_edge.(v) in
  let a = topo.Topology.eu.(e) in
  if a = v then topo.Topology.ev.(e) else a

let path_edges r v =
  ensure r ~what:"path_edges" v;
  if r.dist.(v) = infinity then invalid_arg "Dijkstra.path_edges: unreachable node";
  let rec up v acc = if v = r.src then acc else up (parent r v) (r.parent_edge.(v) :: acc) in
  up v []

let path_nodes r v =
  ensure r ~what:"path_nodes" v;
  if r.dist.(v) = infinity then invalid_arg "Dijkstra.path_nodes: unreachable node";
  let rec up v acc = if v = r.src then v :: acc else up (parent r v) (v :: acc) in
  up v []

let spt_edges r =
  extend_all r;
  let acc = ref [] in
  Array.iter (fun e -> if e >= 0 then acc := e :: !acc) r.parent_edge;
  !acc
