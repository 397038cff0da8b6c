module G = Fr_graph

type side =
  | North
  | East
  | South
  | West

let side_index = function North -> 0 | East -> 1 | South -> 2 | West -> 3

let side_of_index = function
  | 0 -> North
  | 1 -> East
  | 2 -> South
  | 3 -> West
  | _ -> invalid_arg "Rrg.side_of_index: index outside 0..3"

let all_sides = [ North; East; South; West ]

type seg =
  | H of int * int
  | V of int * int

(* Typed total order on segments (H before V, then coordinates), so hot
   paths sorting touched segments never fall back to polymorphic compare. *)
let compare_seg a b =
  match (a, b) with
  | H (a1, a2), H (b1, b2) | V (a1, a2), V (b1, b2) ->
      let c = Int.compare a1 b1 in
      if c <> 0 then c else Int.compare a2 b2
  | H _, V _ -> -1
  | V _, H _ -> 1

type kind =
  | Wire of seg * int
  | Pin of int * int * side * int

type t = {
  arch : Arch.t;
  graph : G.Gstate.t;
  (* Minimum enabled base cost per unit of Manhattan channel distance,
     computed once at build over every edge: the admissible scale for
     {!future_cost}.  (1.0 for this builder: every edge's base weight
     equals its endpoints' L1 separation.) *)
  min_unit_cost : float;
  (* Every node's {!pos}, filled once at build: the searches read node
     geometry per scanned edge and per heuristic evaluation, so decoding
     it from the node id there would dominate their allocation. *)
  node_x : float array;
  node_y : float array;
}

(* Node layout: horizontal wires, then vertical wires, then pins. *)

let dims a = (a.Arch.rows, a.Arch.cols, a.Arch.channel_width, a.Arch.pin_slots)

let n_hwires a =
  let r, c, w, _ = dims a in
  (r + 1) * c * w

let n_vwires a =
  let r, c, w, _ = dims a in
  (c + 1) * r * w

let n_pins a =
  let r, c, _, s = dims a in
  r * c * 4 * s

let hwire_id a ~y ~x ~track =
  let r, c, w, _ = dims a in
  if y < 0 || y > r || x < 0 || x >= c || track < 0 || track >= w then
    invalid_arg "Rrg.hwire_id: out of range";
  (((y * c) + x) * w) + track

let vwire_id a ~x ~y ~track =
  let r, c, w, _ = dims a in
  if x < 0 || x > c || y < 0 || y >= r || track < 0 || track >= w then
    invalid_arg "Rrg.vwire_id: out of range";
  n_hwires a + (((x * r) + y) * w) + track

let pin_id a ~row ~col ~side ~slot =
  let r, c, _, s = dims a in
  if row < 0 || row >= r || col < 0 || col >= c || slot < 0 || slot >= s then
    invalid_arg "Rrg.pin_id: out of range";
  n_hwires a + n_vwires a + ((((row * c) + col) * 4 + side_index side) * s) + slot

let hwire t ~y ~x ~track = hwire_id t.arch ~y ~x ~track
let vwire t ~x ~y ~track = vwire_id t.arch ~x ~y ~track
let pin t ~row ~col ~side ~slot = pin_id t.arch ~row ~col ~side ~slot

let kind_of a v =
  let r, c, w, s = dims a in
  let nh = n_hwires a and nv = n_vwires a in
  if v < 0 || v >= nh + nv + n_pins a then invalid_arg "Rrg.kind_of: node out of range";
  if v < nh then begin
    let track = v mod w and seg = v / w in
    let x = seg mod c and y = seg / c in
    Wire (H (y, x), track)
  end
  else if v < nh + nv then begin
    let v' = v - nh in
    let track = v' mod w and seg = v' / w in
    let y = seg mod r and x = seg / r in
    Wire (V (x, y), track)
  end
  else begin
    let v' = v - nh - nv in
    let slot = v' mod s in
    let rest = v' / s in
    let side = side_of_index (rest mod 4) in
    let blk = rest / 4 in
    Pin (blk / c, blk mod c, side, slot)
  end

let kind t v = kind_of t.arch v

let num_wires t = n_hwires t.arch + n_vwires t.arch

let is_wire t v = v < num_wires t

(* Channel-coordinate geometry: a horizontal wire sits at the middle of
   its segment on channel line y, a vertical wire at the middle of its
   segment on channel line x, a pin at its block's center.  Adjacent
   switch edges span exactly L1 distance 1.0 (wire-wire) or 0.5
   (pin-wire) under this embedding — the fact {!future_cost}'s
   admissibility rests on.  The loops walk the node layout in id order,
   so no id is decoded. *)
let node_positions a =
  let r, c, w, s = dims a in
  let n = n_hwires a + n_vwires a + n_pins a in
  let xs = Array.make n 0. and ys = Array.make n 0. in
  let next = ref 0 in
  let place x y count =
    for _ = 1 to count do
      xs.(!next) <- x;
      ys.(!next) <- y;
      incr next
    done
  in
  for y = 0 to r do
    for x = 0 to c - 1 do
      place (float_of_int x +. 0.5) (float_of_int y) w
    done
  done;
  for x = 0 to c do
    for y = 0 to r - 1 do
      place (float_of_int x) (float_of_int y +. 0.5) w
    done
  done;
  for row = 0 to r - 1 do
    for col = 0 to c - 1 do
      place (float_of_int col +. 0.5) (float_of_int row +. 0.5) (4 * s)
    done
  done;
  (xs, ys)

let pos t v =
  if v < 0 || v >= Array.length t.node_x then invalid_arg "Rrg.pos: node out of range";
  (t.node_x.(v), t.node_y.(v))

let wires_of_segment t seg =
  let w = t.arch.Arch.channel_width in
  match seg with
  | H (y, x) -> List.init w (fun track -> hwire t ~y ~x ~track)
  | V (x, y) -> List.init w (fun track -> vwire t ~x ~y ~track)

let segment_of_node t v = match kind t v with Wire (seg, _) -> Some seg | Pin _ -> None

let segments t =
  let r, c, _, _ = dims t.arch in
  let acc = ref [] in
  for y = 0 to r do
    for x = 0 to c - 1 do
      acc := H (y, x) :: !acc
    done
  done;
  for x = 0 to c do
    for y = 0 to r - 1 do
      acc := V (x, y) :: !acc
    done
  done;
  List.rev !acc

let segment_occupancy t seg =
  List.fold_left
    (fun n v -> if G.Gstate.node_enabled t.graph v then n else n + 1)
    0 (wires_of_segment t seg)

let wirelength t tree =
  let used = G.Tree.nodes t.graph tree in
  float_of_int (List.length (List.filter (is_wire t) used))

(* Switch-block construction: at intersection (x, y) the four incident
   channel segments are joined pairwise; each wire is offered
   [per_side = fs/3 (rounded up)] target tracks on each other side, with a
   rotating offset so fs=3 is the disjoint pattern and fs=6 doubles it. *)
let build arch =
  let r, c, w, s = dims arch in
  let n = n_hwires arch + n_vwires arch + n_pins arch in
  let g = G.Wgraph.create ~edge_capacity:(Arch.edge_slots arch) n in
  let wire_wire u v = ignore (G.Wgraph.add_edge g u v 1.0) in
  let pin_wire u v = ignore (G.Wgraph.add_edge g u v 0.5) in
  let per_side = Arch.per_side arch in
  for x = 0 to c do
    for y = 0 to r do
      (* incident segment accessors, None when at the device boundary *)
      let west = if x >= 1 then Some (fun track -> hwire_id arch ~y ~x:(x - 1) ~track) else None in
      let east = if x <= c - 1 then Some (fun track -> hwire_id arch ~y ~x ~track) else None in
      let south = if y >= 1 then Some (fun track -> vwire_id arch ~x ~y:(y - 1) ~track) else None in
      let north = if y <= r - 1 then Some (fun track -> vwire_id arch ~x ~y ~track) else None in
      let sides = List.filter_map (fun o -> o) [ west; east; south; north ] in
      let rec join = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                for track = 0 to w - 1 do
                  for o = 0 to per_side - 1 do
                    let target = (track + o) mod w in
                    wire_wire (a track) (b target)
                  done
                done)
              rest;
            join rest
      in
      join sides
    done
  done;
  (* Connection blocks: each pin reaches fc evenly spaced tracks of its
     adjacent channel segment, with a position-dependent stagger. *)
  let fc = arch.Arch.fc in
  for row = 0 to r - 1 do
    for col = 0 to c - 1 do
      List.iter
        (fun side ->
          let seg_wire =
            match side with
            | North -> fun track -> hwire_id arch ~y:(row + 1) ~x:col ~track
            | South -> fun track -> hwire_id arch ~y:row ~x:col ~track
            | West -> fun track -> vwire_id arch ~x:col ~y:row ~track
            | East -> fun track -> vwire_id arch ~x:(col + 1) ~y:row ~track
          in
          for slot = 0 to s - 1 do
            let p = pin_id arch ~row ~col ~side ~slot in
            let stagger = (row + col + side_index side + slot) mod w in
            for i = 0 to fc - 1 do
              let track = ((i * w / fc) + stagger) mod w in
              pin_wire p (seg_wire track)
            done
          done)
        all_sides
    done
  done;
  let graph = G.Gstate.of_builder g in
  let node_x, node_y = node_positions arch in
  (* The admissible per-unit scale: min over edges of base weight / L1
     endpoint separation.  Every edge above has weight = its L1 length
     (wire-wire: 1 over distance 1; pin-wire: 0.5 over 0.5), so
     this is 1.0 — but computing it keeps the bound correct if the
     builder's costs ever change. *)
  let min_unit_cost = ref infinity in
  for e = 0 to G.Gstate.num_edges graph - 1 do
    let u, v = G.Gstate.endpoints graph e in
    let l1 = abs_float (node_x.(u) -. node_x.(v)) +. abs_float (node_y.(u) -. node_y.(v)) in
    if l1 > 1e-9 then begin
      let ratio = G.Gstate.weight graph e /. l1 in
      if ratio < !min_unit_cost then min_unit_cost := ratio
    end
  done;
  let min_unit_cost = if !min_unit_cost < infinity then !min_unit_cost else 0. in
  { arch; graph; min_unit_cost; node_x; node_y }

(* Admissible, consistent future-cost bound toward [targets]: Manhattan
   channel distance to the nearest target, scaled by the minimum base
   cost per unit distance.

   Admissible: any path from v to a target t traverses edges whose base
   weights sum to at least [min_unit_cost * L1(v, t)] (each edge costs at
   least min_unit_cost times its own L1 span, and L1 is a metric), and
   run-time prices only inflate base weights — Waves congestion adds
   positive increments, {!Fr_graph.Cost_model} multiplies by factors
   >= 1, and disabling resources removes paths — so the bound only gets
   slacker.
   Consistent: |h(u) - h(v)| <= min_unit_cost * L1(u, v) <= w(u, v) by
   the triangle inequality, for every enabled edge.
   Both properties hold at every node for any target set, so the bound is
   valid for queries against any subset of [targets] (min over a superset
   is still a lower bound).  The router builds one per two-pin connection,
   toward its sink: point-to-point search is where it prunes. *)
let future_cost t ~targets =
  let scale = t.min_unit_cost in
  let node_x = t.node_x and node_y = t.node_y in
  let xs = Array.of_list (List.map (fun v -> fst (pos t v)) targets)
  and ys = Array.of_list (List.map (fun v -> snd (pos t v)) targets) in
  let k = Array.length xs in
  fun v ->
    if k = 0 then 0.
    else begin
      let x = node_x.(v) and y = node_y.(v) in
      let best = ref infinity in
      for i = 0 to k - 1 do
        let d = abs_float (x -. xs.(i)) +. abs_float (y -. ys.(i)) in
        if d < !best then best := d
      done;
      scale *. !best
    end

let read_only_view t = { t with graph = G.Gstate.read_only_view t.graph }

let copy_at t cp = { t with graph = G.Gstate.copy_at t.graph cp }
