(* PathFinder's pricing constants: the first iteration's price per unit
   of prospective overuse, its growth per escalation, the history gained
   per unit of overuse, and the nets a node can legally carry (one RRG
   wire, one net). *)
let present_factor = 0.5

let present_growth = 1.3

let history_factor = 0.4

let capacity = 1

type t = {
  g : Gstate.t;
  base : float array;  (* weights at creation: the pre-congestion costs *)
  usage : int array;  (* nets recorded per node, this iteration *)
  hist : float array;  (* accumulated history price per node *)
  (* Nodes with usage > 0, so per-iteration resets and overuse scans cost
     O(nodes actually routed through), not O(V). *)
  mutable touched : int list;
  mutable present_factor_now : float;
}

let create g =
  if Gstate.is_read_only g then invalid_arg "Cost_model.create: read-only view";
  let n = Gstate.num_nodes g in
  {
    g;
    base = Array.init (Gstate.num_edges g) (Gstate.weight g);
    usage = Array.make n 0;
    hist = Array.make n 0.;
    touched = [];
    present_factor_now = present_factor;
  }

let begin_iteration t =
  List.iter (fun v -> t.usage.(v) <- 0) t.touched;
  t.touched <- []

let use_nodes t nodes =
  List.iter
    (fun v ->
      if t.usage.(v) = 0 then t.touched <- v :: t.touched;
      t.usage.(v) <- t.usage.(v) + 1)
    nodes

(* Rip-up: remove one net's recorded usage.  The node stays in [touched]
   (resets tolerate zero entries), so this never misses bookkeeping. *)
let release_nodes t nodes =
  List.iter
    (fun v ->
      if t.usage.(v) <= 0 then invalid_arg "Cost_model.release_nodes: node is not in use";
      t.usage.(v) <- t.usage.(v) - 1)
    nodes

let usage t v = t.usage.(v)

let history t v = t.hist.(v)

let over t v = t.usage.(v) - capacity

let overuse t =
  List.fold_left (fun acc v -> acc + Int.max 0 (over t v)) 0 t.touched

let overused_nodes t =
  List.filter (fun v -> over t v > 0) t.touched |> List.sort Int.compare

let escalate t =
  List.iter
    (fun v ->
      let o = over t v in
      if o > 0 then t.hist.(v) <- t.hist.(v) +. (history_factor *. float_of_int o))
    t.touched;
  t.present_factor_now <- t.present_factor_now *. present_growth

(* Prospective present price of a node: what one MORE net would overload it
   by.  The router rips conflicted nets out of [usage] before {!apply}, so
   the remaining usage belongs to nets keeping their routes — a re-routing
   net pays for joining an occupied wire but never for its own (already
   released) footprint.  That self-exclusion is what the PathFinder
   first-order term needs; pricing full usage instead makes every net flee
   its own route and the netlist reshuffles forever. *)
let present t v =
  t.present_factor_now *. float_of_int (Int.max 0 (t.usage.(v) + 1 - capacity))

let apply t =
  let g = t.g in
  for e = 0 to Array.length t.base - 1 do
    let u, v = Gstate.endpoints g e in
    let pres = 0.5 *. (present t u +. present t v) in
    let hist = 0.5 *. (t.hist.(u) +. t.hist.(v)) in
    Gstate.set_weight g e (t.base.(e) *. (1. +. pres) *. (1. +. hist))
  done
