module G = Fr_graph
module C = Fr_core

type strategy =
  | Tree_alg of C.Routing_alg.t
  | Two_pin_decomposition

type mode =
  | Waves
  | Negotiated

type config = {
  strategy : strategy;
  mode : mode;
  critical_strategy : (Netlist.net -> bool) option;
  max_passes : int;
}

let default_config =
  { strategy = Tree_alg C.Routing_alg.ikmb; mode = Waves; critical_strategy = None; max_passes = 20 }

let config_with ?alg ?max_passes ?mode () =
  let cfg = default_config in
  let cfg = match alg with Some a -> { cfg with strategy = Tree_alg a } | None -> cfg in
  let cfg = match mode with Some m -> { cfg with mode = m } | None -> cfg in
  match max_passes with Some p -> { cfg with max_passes = p } | None -> cfg

(* ------------------------------------------------------------------ *)
(* Fixed routing parameters                                            *)
(* ------------------------------------------------------------------ *)

(* §2's construction for critical nets: shortest source-sink paths first,
   then the least wire that keeps them. *)
let critical_alg = C.Routing_alg.idom

(* Weight added, scaled by 1/W, to the edges near a consumed wire's
   channel segment.  Strong pressure spreads nets across channels, which
   measurably lowers the achievable channel widths. *)
let congestion_increment = 3.0

(* Steiner-candidate scans and restricted searches stay inside the net's
   bounding box widened by this many blocks; a net that fails there is
   retried on the whole graph. *)
let bbox_margin = 3.

(* Cap on the Steiner candidates one net's construction scans; wider scans
   are thinned by a uniform stride. *)
let max_candidates = 2500

(* Cap on the nets of one speculative waves batch (see "Wave batching"
   below); 1 would disable batching, every net solving against the live
   state serially. *)
let par_batch = 8

(* Early cutoff of the waves pass loop: if the number of failing nets has
   not improved for this many consecutive passes, the width is hopeless —
   declaring failure early saves most of the downward-infeasible probes. *)
let waves_stall_limit = 6

(* Negotiated mode declares failure after this many pricing iterations,
   or after this many consecutive iterations without a new best total
   overuse.  Prices use {!Fr_graph.Cost_model}'s constants. *)
let neg_max_iterations = 64

let neg_stall_limit = 12

type routed_net = {
  net : Netlist.net;
  tree : G.Tree.t;
  wires_used : float;
  max_path : float;
}

type stats = {
  passes : int;
  routed : routed_net list;
  total_wirelength : float;
  total_max_path : float;
  peak_occupancy : int;
  dijkstra_runs : int;
  settled_nodes : int;
  mutations : int;
  rollbacks : int;
  journal_depth : int;
  domains : int;
  par_batches : int;
  par_conflicts : int;
  future_cost_evals : int;
}

type failure = {
  failed_nets : string list;
  passes_tried : int;
}

(* ------------------------------------------------------------------ *)
(* Net ordering                                                        *)
(* ------------------------------------------------------------------ *)

let half_perimeter net =
  let c0, r0, c1, r1 = Netlist.bounding_box net in
  c1 - c0 + (r1 - r0)

let initial_order nets =
  List.stable_sort
    (fun a b ->
      match Int.compare (Netlist.pin_count b) (Netlist.pin_count a) with
      | 0 -> (
          match Int.compare (half_perimeter b) (half_perimeter a) with
          | 0 -> String.compare a.Netlist.net_name b.Netlist.net_name
          | c -> c)
      | c -> c)
    nets

let move_to_front failed order =
  let failed_set = Hashtbl.create (2 * List.length failed) in
  List.iter (fun name -> Hashtbl.replace failed_set name ()) failed;
  let is_failed n = Hashtbl.mem failed_set n.Netlist.net_name in
  let front, back = List.partition is_failed order in
  front @ back

(* ------------------------------------------------------------------ *)
(* Per-net routing                                                     *)
(* ------------------------------------------------------------------ *)

(* The net's bounding box, widened by the margin, as one bit per node:
   the restriction every search of a restricted solve tests, and the
   filter [candidates_for] applies.  Built once per solve attempt from the
   precomputed geometry, so the searches test one bit per scanned edge. *)
let bbox_region rrg net =
  let c0, r0, c1, r1 = Netlist.bounding_box net in
  let x0 = float_of_int c0 -. bbox_margin
  and x1 = float_of_int (c1 + 1) +. bbox_margin
  and y0 = float_of_int r0 -. bbox_margin
  and y1 = float_of_int (r1 + 1) +. bbox_margin in
  let node_x = rrg.Rrg.node_x and node_y = rrg.Rrg.node_y in
  let n = G.Gstate.num_nodes rrg.Rrg.graph in
  let region = Fr_util.Bitset.create ~value:false n in
  for v = 0 to n - 1 do
    let x = node_x.(v) and y = node_y.(v) in
    if x >= x0 && x <= x1 && y >= y0 && y <= y1 then Fr_util.Bitset.set region v true
  done;
  region

(* Candidate Steiner nodes: wire nodes inside the region (the bounding
   box), thinned to at most [cap]. *)
let candidates_for rrg ~cap region =
  let acc = ref [] in
  let count = ref 0 in
  for v = Rrg.num_wires rrg - 1 downto 0 do
    if
      G.Gstate.node_enabled rrg.Rrg.graph v
      && match region with None -> true | Some b -> Fr_util.Bitset.get b v
    then begin
      acc := v :: !acc;
      incr count
    end
  done;
  if !count <= cap then !acc
  else begin
    (* ceil(count/cap): the smallest stride whose kept count
       (ceil(count/stride)) still fits the budget.  The previous
       [1 + count/cap] overshoots the stride by one and keeps up to ~2x
       fewer candidates than the cap allows. *)
    let stride = (!count + cap - 1) / cap in
    List.filteri (fun i _ -> i mod stride = 0) !acc
  end

(* One cache per net, with no future-cost bound: a tree construction's
   searches run from several terminals toward sets of them, where a bound
   to the nearest of all the net's terminals saved no time — what A*
   pruned, its heuristic evaluations cost (DESIGN.md §4.8).  The cache is
   recorded in [caches] so the attempt can report its work. *)
let solve_tree_alg ~caches alg rrg net ~restricted =
  let cnet = Netlist.rrg_net rrg net in
  let restrict = if restricted then Some (bbox_region rrg net) else None in
  let cache = G.Dist_cache.create ?restrict rrg.Rrg.graph in
  caches := cache :: !caches;
  let candidates = candidates_for rrg ~cap:max_candidates restrict in
  alg.C.Routing_alg.solve ~candidates cache ~net:cnet

(* The CGE/SEGA/GBP-style baseline: each source-sink connection is routed
   as an independent two-pin net on its own wires.  The solve claims a
   connection's wires by clearing their bits in its own allowed-node set
   (the bounding-box region, or every node for the full-graph retry), so
   the next connection cannot reuse them — the decomposition's
   inefficiency — while the graph is only read.  Each connection is one
   point-to-point search, the sharpest case for goal-direction: it runs
   under the Manhattan bound to its sink, and is recorded in [searches]
   for the attempt's work. *)
let solve_two_pin ~searches rrg net ~restricted =
  let g = rrg.Rrg.graph in
  let cnet = Netlist.rrg_net rrg net in
  let src = cnet.C.Net.source in
  let allowed =
    if restricted then bbox_region rrg net else Fr_util.Bitset.create (G.Gstate.num_nodes g)
  in
  let route_sink edges sink =
    let r =
      G.Dijkstra.run ~restrict:allowed ~targets:[ sink ]
        ~future_cost:(Rrg.future_cost rrg ~targets:[ sink ]) g ~src
    in
    searches := r :: !searches;
    if not (G.Dijkstra.reachable r sink) then C.Routing_err.fail "two-pin";
    let path = G.Dijkstra.path_edges r sink in
    (* The sink is settled, so nothing resumes this search under the
       bitset it shares. *)
    List.iter
      (fun v -> if Rrg.is_wire rrg v then Fr_util.Bitset.set allowed v false)
      (G.Dijkstra.path_nodes r sink);
    path @ edges
  in
  G.Tree.of_edges (List.fold_left route_sink [] cnet.C.Net.sinks)

let solve_net ~caches ~searches cfg rrg net ~restricted =
  let critical = match cfg.critical_strategy with Some p -> p net | None -> false in
  if critical then solve_tree_alg ~caches critical_alg rrg net ~restricted
  else
    match cfg.strategy with
    | Tree_alg alg -> solve_tree_alg ~caches alg rrg net ~restricted
    | Two_pin_decomposition -> solve_two_pin ~searches rrg net ~restricted

(* The RRG nodes of a net's pins, source first. *)
let pin_nodes rrg net =
  List.map
    (fun p -> Rrg.pin rrg ~row:p.Netlist.row ~col:p.Netlist.col ~side:p.Netlist.side ~slot:p.Netlist.slot)
    (Netlist.net_pins net)

(* Commit a routed net: consume its resources and add congestion pressure
   around the channel segments it used.  What it writes is a function of
   the state, the net's pin nodes as a set and the tree's edges; nothing
   else of the net enters. *)
let commit rrg net tree =
  let g = rrg.Rrg.graph in
  let w = rrg.Rrg.arch.Arch.channel_width in
  let used_nodes = G.Tree.nodes g tree in
  let touched_segments =
    List.filter_map (fun v -> Rrg.segment_of_node rrg v) used_nodes
    |> List.sort_uniq Rrg.compare_seg
  in
  (* Disable consumed wires and the net's own pins. *)
  List.iter (fun v -> if Rrg.is_wire rrg v then G.Gstate.disable_node g v) used_nodes;
  List.iter (G.Gstate.disable_node g) (pin_nodes rrg net);
  (* Congestion: edges incident to the remaining free wires of each touched
     segment become more expensive, proportional to the new occupancy. *)
  let inc = congestion_increment /. float_of_int w in
  List.iter
    (fun seg ->
      List.iter
        (fun wire ->
          if G.Gstate.node_enabled g wire then begin
            let edges = G.Gstate.fold_adj g wire (fun acc e _ _ -> e :: acc) [] in
            List.iter (fun e -> G.Gstate.add_weight g e inc) edges
          end)
        (Rrg.wires_of_segment rrg seg))
    touched_segments

(* Land a solved net, in both modes: measure it at the base weights (so
   pathlength is in pre-congestion units), then commit it. *)
let land_net rrg base_w net tree =
  let cnet = Netlist.rrg_net rrg net in
  let max_path =
    G.Tree.max_path_length ~weight:(Array.get base_w) rrg.Rrg.graph tree
      ~src:cnet.C.Net.source ~sinks:cnet.C.Net.sinks
  in
  let wires_used = Rrg.wirelength rrg tree in
  commit rrg net tree;
  { net; tree; wires_used; max_path }

(* ------------------------------------------------------------------ *)
(* Wave batching                                                       *)
(* ------------------------------------------------------------------ *)

(* The rip-up wave is partitioned into an ordered sequence of batches.  A
   batch's nets are solved speculatively against the routing state frozen
   at the batch's start (that is what the parallel path fans out over
   worker domains), then committed one at a time in wave order; a
   speculative tree invalidated by an earlier commit of its own batch is
   re-solved serially on the spot.  The partition, the speculative solves
   (pure functions of the frozen state) and the serial commit order are
   all independent of the domain count, which is the determinism argument:
   [~domains:1] and [~domains:n] run the exact same pipeline and produce
   bit-identical trees.

   Batches are formed first-fit over the wave order: a net joins the
   earliest batch whose nets' terminal bounding boxes are all disjoint
   from its own (capped at [par_batch] nets), else opens a new batch.
   Disjoint boxes make same-batch nets unlikely to want the same wires, so
   conflicts stay rare — but the test is purely a throughput heuristic;
   correctness comes from the commit-time validation. *)

(* A two-pin net batches alone.  Its solve is a pure read like any other,
   but the decomposition is the sequential baseline of CGE/SEGA/GBP: each
   net routes against every earlier net's commits.  Solving it against a
   batch-start state instead would move its trees, and with them the
   channel widths the baseline table compares against.  Alone in its
   batch, it solves against the live state. *)
let batches_alone cfg net =
  match cfg.strategy with
  | Tree_alg _ -> false
  | Two_pin_decomposition -> (
      match cfg.critical_strategy with Some p -> not (p net) | None -> true)

let boxes_disjoint (ac0, ar0, ac1, ar1) (bc0, br0, bc1, br1) =
  ac1 < bc0 || bc1 < ac0 || ar1 < br0 || br1 < ar0

type batch = {
  alone : bool;
  (* wave-reversed during construction; finalized to wave order *)
  mutable members : (Netlist.net * (int * int * int * int)) list;
  mutable size : int;
}

let partition_wave cfg order =
  (* [rev_batches] is newest-first; first-fit scans creation order. *)
  let rev_batches = ref [] in
  List.iter
    (fun net ->
      if batches_alone cfg net then
        rev_batches :=
          { alone = true; members = [ (net, (0, 0, 0, 0)) ]; size = 1 } :: !rev_batches
      else begin
        let box = Netlist.bounding_box net in
        let fits b =
          (not b.alone)
          && b.size < par_batch
          && List.for_all (fun (_, b2) -> boxes_disjoint box b2) b.members
        in
        match List.find_opt fits (List.rev !rev_batches) with
        | Some b ->
            b.members <- (net, box) :: b.members;
            b.size <- b.size + 1
        | None ->
            rev_batches := { alone = false; members = [ (net, box) ]; size = 1 } :: !rev_batches
      end)
    order;
  List.rev_map
    (fun b ->
      b.members <- List.rev b.members;
      b)
    !rev_batches

(* ------------------------------------------------------------------ *)
(* The solve fan-out                                                   *)
(* ------------------------------------------------------------------ *)

(* The search work of solve attempts: Dijkstra runs, settled nodes and
   heuristic evaluations. *)
type work = {
  runs : int;
  settled : int;
  h_evals : int;
}

let no_work = { runs = 0; settled = 0; h_evals = 0 }

let add_work a b =
  { runs = a.runs + b.runs; settled = a.settled + b.settled; h_evals = a.h_evals + b.h_evals }

(* Restricted solve first, full-graph retry on failure.  Every cache,
   search and bitset the attempt creates is its own, so its work is a
   function of the net and the state alone; it counts the work of a try
   that failed too. *)
let attempt cfg rrg net =
  let caches = ref [] and searches = ref [] in
  let go restricted =
    match solve_net ~caches ~searches cfg rrg net ~restricted with
    | tree -> Some tree
    | exception C.Routing_err.Unroutable _ -> None
  in
  let tree = match go true with Some t -> Some t | None -> go false in
  let sum xs f = List.fold_left (fun acc x -> acc + f x) 0 xs in
  ( tree,
    {
      runs = sum !caches G.Dist_cache.runs + List.length !searches;
      settled = sum !caches G.Dist_cache.settled_nodes + sum !searches G.Dijkstra.settled_count;
      h_evals = sum !searches G.Dijkstra.future_cost_evals;
    } )

(* The speculative-solve worker body, a named module-level function
   partial-applied at the Pool.map site.  Everything a worker touches is
   an explicit parameter: frdomcheck checks this as the worker root, and
   the allowlist carries the ownership argument for the writes it sees
   (they land in caches, searches and bitsets the attempt itself created
   over the read-only view [rrg]). *)
let solve_job cfg rrg nets i = attempt cfg rrg nets.(i) [@@frdomcheck.worker]

(* Solve [nets] against the current state, results in input order — one
   waves batch, one conflict re-solve or one negotiated iteration —
   adding their work to [work] on the main domain.  Every solve is a pure
   read of the read-only [view]: two or more nets fan out over [pool], and
   each such fan-out counts in [par_batches] whatever the domain count;
   a single net solves in place. *)
let solve_all ~par_batches ~work pool view cfg nets =
  let count = Array.length nets in
  let solved =
    if count >= 2 then begin
      incr par_batches;
      Fr_util.Pool.map pool ~count (solve_job cfg view nets)
    end
    else Array.map (attempt cfg view) nets
  in
  Array.map
    (fun (tree, w) ->
      work := add_work !work w;
      tree)
    solved

(* ------------------------------------------------------------------ *)
(* Session plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let peak_occupancy rrg =
  List.fold_left (fun acc seg -> Int.max acc (Rrg.segment_occupancy rrg seg)) 0 (Rrg.segments rrg)

(* Everything a route would trip over, checked before anything is
   touched: a valid netlist, on the architecture's array, whose every pin
   is one of the [pin_slots] slots the RRG builds per block side. *)
let check_circuit ~fname rrg circuit =
  (match Netlist.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg (fname ^ ": " ^ msg));
  let arch = rrg.Rrg.arch in
  if circuit.Netlist.rows <> arch.Arch.rows || circuit.Netlist.cols <> arch.Arch.cols then
    invalid_arg (fname ^ ": circuit does not fit architecture");
  List.iter
    (fun n ->
      if List.exists (fun p -> p.Netlist.slot >= arch.Arch.pin_slots) (Netlist.net_pins n) then
        invalid_arg
          (Printf.sprintf "%s: net %s: pin slot out of range (the architecture has %d per side)"
             fname n.Netlist.net_name arch.Arch.pin_slots))
    circuit.Netlist.nets

let check_route_args ~fname rrg circuit domains =
  check_circuit ~fname rrg circuit;
  if domains < 1 || domains > Fr_util.Pool.max_domains then
    invalid_arg (Printf.sprintf "%s: domains must be in [1, %d]" fname Fr_util.Pool.max_domains)

(* ------------------------------------------------------------------ *)
(* The routing session: the router's one engine                        *)
(* ------------------------------------------------------------------ *)

(* Every route runs in a session over one RRG.  A session keeps the
   journal live above its base checkpoint, so a netlist delta only needs a
   targeted rollback and a re-route of the affected suffix.  A scratch
   [route] is a session opened, routed once and closed, so the ECO
   identity (an apply equals a scratch route of the edited netlist) holds
   by construction for everything but the kept batches and the landings
   carried over from a copy. *)
module Eco = struct
  type delta =
    | Add_net of Netlist.net
    | Remove_net of string
    | Retime_net of string * Netlist.pin_ref * Netlist.pin_ref list

  (* One landed batch of the maintained routing: the journal mark taken
     before its first commit (rolling back to it erases this batch and
     everything after it), the member nets and the commits it produced, in
     commit order.  Waves mode keeps one per batch of its pass schedule,
     the nets being the schedule key; negotiated mode keeps one for its
     converged landing, all nets in canonical order. *)
  type batch_rec = {
    br_cp : G.Gstate.checkpoint;
    br_nets : Netlist.net list;
    br_routed : routed_net list;
  }

  type t = {
    e_rrg : Rrg.t;
    e_cfg : config;
    e_base_w : float array;
    e_cp0 : G.Gstate.checkpoint;
    e_pool : Fr_util.Pool.t;
    e_view : Rrg.t;  (* the read-only view every solve reads *)
    e_domains : int;
    mutable e_circuit : Netlist.circuit;
    mutable e_batches : batch_rec list;
    mutable e_last : stats option;
    mutable e_closed : bool;
  }

  type eco_stats = {
    stats : stats;
    nets_total : int;
    nets_ripped : int;
    nets_reused : int;
  }

  (* [base] holds the graph's lifetime journal counters at the request's
     entry, so the session reports per-request deltas; [work] is this
     request's own search work. *)
  let mk_stats t ~base:(mutations0, rollbacks0) ~work ~par_batches ~par_conflicts routed n =
    let g = t.e_rrg.Rrg.graph in
    {
      passes = n;
      routed;
      total_wirelength = List.fold_left (fun a r -> a +. r.wires_used) 0. routed;
      total_max_path = List.fold_left (fun a r -> a +. r.max_path) 0. routed;
      peak_occupancy = peak_occupancy t.e_rrg;
      dijkstra_runs = !work.runs;
      settled_nodes = !work.settled;
      mutations = G.Gstate.mutations g - mutations0;
      rollbacks = G.Gstate.rollbacks g - rollbacks0;
      journal_depth = G.Gstate.peak_journal_depth g;
      domains = t.e_domains;
      par_batches = !par_batches;
      par_conflicts = !par_conflicts;
      future_cost_evals = !work.h_evals;
    }

  let batch_matches br (b : batch) =
    Int.equal (List.length br.br_nets) b.size
    && List.for_all2 (fun n (m, _) -> Netlist.same_net n m) br.br_nets b.members

  (* The graph's state at opening is the session base: the weights every
     committed tree is measured at, and the checkpoint every full re-route
     rolls back to.  The worker pool outlives every pass and request:
     spawning domains costs more than routing a batch. *)
  let open_session ~fname ?(config = default_config) ?(domains = 1) rrg circuit =
    check_route_args ~fname rrg circuit domains;
    let g = rrg.Rrg.graph in
    {
      e_rrg = rrg;
      e_cfg = config;
      e_base_w = Array.init (G.Gstate.num_edges g) (G.Gstate.weight g);
      e_cp0 = G.Gstate.checkpoint g;
      e_pool = Fr_util.Pool.create ~domains ();
      e_view = Rrg.read_only_view rrg;
      e_domains = domains;
      e_circuit = circuit;
      e_batches = [];
      e_last = None;
      e_closed = false;
    }

  (* Run one batch of a schedule on [rrg], the session's graph or a copy of
     it, solving against its read-only [view]: one solve fan-out, then
     landing in wave order.  Returns the batch's ledger entry, marked in
     [rrg]'s journal, and its failed nets. *)
  let run_batch t rrg view ~work ~par_batches ~par_conflicts b =
    let g = rrg.Rrg.graph in
    let solve nets = solve_all ~par_batches ~work t.e_pool view t.e_cfg nets in
    let cp = G.Gstate.checkpoint g in
    let landed = ref [] and failed = ref [] in
    let land_tree net tree = landed := land_net rrg t.e_base_w net tree :: !landed in
    let land_result net = function
      | None ->
          (* Failed against the frozen state on the *full* graph.  Commits
             only disable resources within a pass, so the live state offers
             a subset of the frozen one — no point re-solving. *)
          failed := net.Netlist.net_name :: !failed
      | Some tree ->
          (* A speculative tree survives its batch-mates' commits iff every
             resource it uses is still enabled; weight changes never
             invalidate it (they only mean a fresh solve might have chosen
             differently). *)
          if G.Tree.uses_only_enabled g tree then land_tree net tree
          else begin
            (* A batch-mate committed first and took one of this tree's
               wires: re-solve against the live state. *)
            incr par_conflicts;
            match (solve [| net |]).(0) with
            | Some tree -> land_tree net tree
            | None -> failed := net.Netlist.net_name :: !failed
          end
    in
    let nets = Array.of_list (List.map fst b.members) in
    Array.iteri (fun i r -> land_result nets.(i) r) (solve nets);
    ({ br_cp = cp; br_nets = Array.to_list nets; br_routed = List.rev !landed }, List.rev !failed)

  (* Land a batch on the session's graph under a fresh journal mark, by
     committing its trees in their order: on the state the batch first
     landed on (the graph's own, or a copy's), this rebuilds the state it
     left, since a commit is deterministic. *)
  let replay_batch t br =
    let cp = G.Gstate.checkpoint t.e_rrg.Rrg.graph in
    List.iter (fun r -> commit t.e_rrg r.net r.tree) br.br_routed;
    { br with br_cp = cp }

  (* Whether two batches' landings leave the same state from the same
     start: net by net in commit order, the same pin nodes as a set and the
     same tree edges, which is all a commit reads besides the state.  Which
     pin is the source, and the net's name, do not enter. *)
  let same_landing rrg a b =
    let pins r = List.sort Int.compare (pin_nodes rrg r.net) in
    List.equal
      (fun x y ->
        List.equal Int.equal x.tree.G.Tree.edges y.tree.G.Tree.edges
        && List.equal Int.equal (pins x) (pins y))
      a.br_routed b.br_routed

  (* Waves mode: rip-up passes with move-to-front ordering.  Pass 1 keeps
     what the ledger proves still valid and re-runs the rest; every later
     pass is a full re-route from the session base, the same code on the
     same inputs whatever pass 1 kept. *)
  let waves_route t circuit ~ripped ~reused ~work ~par_batches ~par_conflicts =
    let rrg = t.e_rrg in
    let g = rrg.Rrg.graph in
    let tally tbl nets = List.iter (fun n -> Hashtbl.replace tbl n.Netlist.net_name ()) nets in
    (* One walk over the new [schedule] beside the stored ledger [stale].
       While [stale] is not empty nothing has been rolled back, so the
       graph still holds the stored batches from [stale]'s head on, and the
       state at a ledger mark is a function of the commits landed before
       it, in order.  A scheduled batch with the stored batch's nets is
       kept as it stands.  Any other batch is solved and landed on a copy
       of the state at the stored batch's mark; if it lands what the ledger
       stored there (net by net, the same pins as a set and the same tree),
       the graph already holds that landing and the walk goes on keeping.
       Otherwise, and at the schedule's end with ledger left over, the
       journal rolls back to that mark, erasing the stored batch and
       everything after it; the copy's landing is committed there, and
       every later batch is solved on the graph. *)
    let rec walk ledger failed stale schedule =
      match (stale, schedule) with
      | br :: stale', b :: rest when batch_matches br b ->
          tally reused br.br_nets;
          walk (br :: ledger) failed stale' rest
      | br :: _, [] ->
          G.Gstate.rollback g br.br_cp;
          walk ledger failed [] []
      | [], [] -> (List.rev ledger, List.rev failed)
      | br :: stale', b :: rest ->
          let copy = Rrg.copy_at rrg br.br_cp in
          let landed, lost =
            run_batch t copy (Rrg.read_only_view copy) ~work ~par_batches ~par_conflicts b
          in
          tally ripped landed.br_nets;
          if lost = [] && same_landing rrg br landed then
            walk ({ landed with br_cp = br.br_cp } :: ledger) failed stale' rest
          else begin
            G.Gstate.rollback g br.br_cp;
            walk (replay_batch t landed :: ledger) (List.rev_append lost failed) [] rest
          end
      | [], b :: rest ->
          let landed, lost = run_batch t rrg t.e_view ~work ~par_batches ~par_conflicts b in
          tally ripped landed.br_nets;
          walk (landed :: ledger) (List.rev_append lost failed) [] rest
    in
    let pass n order =
      let schedule = partition_wave t.e_cfg order in
      if n = 1 then walk [] [] t.e_batches schedule
      else begin
        Hashtbl.reset reused;
        (* Each later pass rips the previous one up by rolling the journal
           back to the base — O(entries the pass wrote), not O(V+E). *)
        G.Gstate.rollback g t.e_cp0;
        walk [] [] [] schedule
      end
    in
    let rec loop n order ~best ~stalled =
      let ledger, failed = pass n order in
      if failed = [] then Ok (ledger, n)
      else begin
        let count = List.length failed in
        let best, stalled = if count < best then (count, 0) else (best, stalled + 1) in
        if n >= t.e_cfg.max_passes || stalled >= waves_stall_limit then
          Error { failed_nets = failed; passes_tried = n }
        else loop (n + 1) (move_to_front failed order) ~best ~stalled
      end
    in
    loop 1 (initial_order circuit.Netlist.nets) ~best:max_int ~stalled:0

  (* Negotiated congestion: nets route against shared, over-subscribable
     resources priced by the cost model.  Overuse is legal mid-flight; the
     price escalation (present pressure growing geometrically, history
     rising by a sub-gradient step on each resource's overuse) drives it
     to zero.  The first iteration routes the whole netlist at base
     prices; afterwards every net touching an overused resource is ripped
     out of the usage counts and re-solved — one fan-out over ALL
     conflicted nets, no disjointness partition — against the graph priced
     from the remaining (kept) usage plus history, which is the rip-up
     discipline of the sub-gradient router (arXiv 1803.03885).  Each
     iteration's solves are pure functions of the epoch's frozen priced
     graph, the conflicted set is a pure function of the previous
     iteration, and nets are committed in canonical order only after
     convergence — so results are bit-identical across [~domains].

     Pricing has no batch structure to keep a prefix of: the maintained
     trees are torn down and the whole netlist negotiated from the base
     state, every net ripped.  On [Error] the graph is rolled back to the
     base. *)
  let negotiated_route t circuit ~ripped ~work ~par_batches =
    let rrg = t.e_rrg in
    let g = rrg.Rrg.graph in
    G.Gstate.rollback g t.e_cp0;
    let nets = Array.of_list (initial_order circuit.Netlist.nets) in
    Array.iter (fun net -> Hashtbl.replace ripped net.Netlist.net_name ()) nets;
    let cm = G.Cost_model.create g in
    let n_nets = Array.length nets in
    let trees = Array.make n_nets G.Tree.empty in
    let rec iterate n ~active ~best ~stalled =
      let results =
        solve_all ~par_batches ~work t.e_pool t.e_view t.e_cfg (Array.map (Array.get nets) active)
      in
      let missing = ref [] in
      Array.iteri
        (fun k r ->
          match r with
          | Some tree -> trees.(active.(k)) <- tree
          | None -> missing := nets.(active.(k)).Netlist.net_name :: !missing)
        results;
      if !missing <> [] then begin
        (* Some net is unroutable even with every resource shared: no
           price schedule can fix that.  Restore the entry state. *)
        G.Gstate.rollback g t.e_cp0;
        Error { failed_nets = List.rev !missing; passes_tried = n }
      end
      else begin
        G.Cost_model.begin_iteration cm;
        Array.iter (fun tree -> G.Cost_model.use_nodes cm (G.Tree.nodes g tree)) trees;
        let overuse = G.Cost_model.overuse cm in
        if overuse = 0 then begin
          (* Converged: the trees are mutually disjoint.  Roll the prices
             back to the base weights, then land the trees as the waves
             mode does, in canonical net order, as one ledger entry. *)
          G.Gstate.rollback g t.e_cp0;
          let cp = G.Gstate.checkpoint g in
          let routed =
            Array.to_list (Array.mapi (fun i tree -> land_net rrg t.e_base_w nets.(i) tree) trees)
          in
          Ok ([ { br_cp = cp; br_nets = Array.to_list nets; br_routed = routed } ], n)
        end
        else begin
          let best, stalled = if overuse < best then (overuse, 0) else (best, stalled + 1) in
          let over = Hashtbl.create 64 in
          List.iter (fun v -> Hashtbl.replace over v ()) (G.Cost_model.overused_nodes cm);
          let conflicted = ref [] in
          for i = n_nets - 1 downto 0 do
            if List.exists (Hashtbl.mem over) (G.Tree.nodes g trees.(i)) then
              conflicted := i :: !conflicted
          done;
          if n >= neg_max_iterations || stalled >= neg_stall_limit then begin
            (* Price escalation stopped helping: report the nets still
               fighting over an overused resource and restore the entry
               state. *)
            G.Gstate.rollback g t.e_cp0;
            Error
              {
                failed_nets = List.map (fun i -> nets.(i).Netlist.net_name) !conflicted;
                passes_tried = n;
              }
          end
          else begin
            (* History escalates on the full usage (the overuse actually
               observed); then the conflicted nets are ripped out so the
               present term prices only the kept nets' occupancy. *)
            G.Cost_model.escalate cm;
            List.iter
              (fun i -> G.Cost_model.release_nodes cm (G.Tree.nodes g trees.(i)))
              !conflicted;
            G.Cost_model.apply cm;
            iterate (n + 1) ~active:(Array.of_list !conflicted) ~best ~stalled
          end
        end
      end
    in
    iterate 1 ~active:(Array.init n_nets Fun.id) ~best:max_int ~stalled:0

  (* Route [circuit] in the session, keeping what the ledger proves still
     valid.  On [Ok] the session maintains the new routing; on [Error] it
     keeps the old one, while the graph holds the failed attempt's end
     state (waves: its final pass; negotiated: the base). *)
  let reroute t circuit =
    let g = t.e_rrg.Rrg.graph in
    (* Per-call stats hygiene: the peak journal depth is a high-water mark
       on the state, and the state outlives this call. *)
    G.Gstate.reset_peak_journal_depth g;
    let base = (G.Gstate.mutations g, G.Gstate.rollbacks g) in
    let work = ref no_work in
    let ripped = Hashtbl.create 64 and reused = Hashtbl.create 64 in
    let par_batches = ref 0 and par_conflicts = ref 0 in
    let res =
      match t.e_cfg.mode with
      | Waves -> waves_route t circuit ~ripped ~reused ~work ~par_batches ~par_conflicts
      | Negotiated -> negotiated_route t circuit ~ripped ~work ~par_batches
    in
    Result.map
      (fun (ledger, n) ->
        let routed = List.concat_map (fun br -> br.br_routed) ledger in
        let stats = mk_stats t ~base ~work ~par_batches ~par_conflicts routed n in
        t.e_circuit <- circuit;
        t.e_batches <- ledger;
        t.e_last <- Some stats;
        {
          stats;
          nets_total = List.length circuit.Netlist.nets;
          nets_ripped = Hashtbl.length ripped;
          nets_reused = Hashtbl.length reused;
        })
      res

  (* Re-establish the maintained routing after a failed [apply]: tear the
     failed attempt down and replay the ledger.  Committing a known tree is
     deterministic given the commit order, so this reproduces the exact
     pre-request state (with fresh journal marks for the ledger). *)
  let restore t =
    G.Gstate.rollback t.e_rrg.Rrg.graph t.e_cp0;
    t.e_batches <- List.map (replay_batch t) t.e_batches

  let close t =
    if not t.e_closed then begin
      t.e_closed <- true;
      Fr_util.Pool.shutdown t.e_pool
    end

  let create ?config ?domains rrg circuit =
    let t = open_session ~fname:"Router.Eco.create" ?config ?domains rrg circuit in
    match reroute t circuit with
    | Ok es -> Ok (t, es)
    | Error f ->
        (* A session never outlives a failed initial route: leave the graph
           as it entered and tear the pool down. *)
        G.Gstate.rollback rrg.Rrg.graph t.e_cp0;
        close t;
        Error f

  let delta_name = function
    | Add_net n -> n.Netlist.net_name
    | Remove_net name | Retime_net (name, _, _) -> name

  let edit_circuit circuit d =
    let name = delta_name d in
    let mem =
      List.exists (fun n -> String.equal n.Netlist.net_name name) circuit.Netlist.nets
    in
    match d with
    | Add_net n ->
        if mem then invalid_arg ("Router.Eco.apply: net already present: " ^ name);
        { circuit with Netlist.nets = circuit.Netlist.nets @ [ n ] }
    | Remove_net _ ->
        if not mem then invalid_arg ("Router.Eco.apply: no such net: " ^ name);
        {
          circuit with
          Netlist.nets =
            List.filter
              (fun n -> not (String.equal n.Netlist.net_name name))
              circuit.Netlist.nets;
        }
    | Retime_net (_, source, sinks) ->
        if not mem then invalid_arg ("Router.Eco.apply: no such net: " ^ name);
        let replacement = Netlist.make_net ~name ~source ~sinks in
        {
          circuit with
          Netlist.nets =
            List.map
              (fun n -> if String.equal n.Netlist.net_name name then replacement else n)
              circuit.Netlist.nets;
        }

  let apply t deltas =
    if t.e_closed then invalid_arg "Router.Eco.apply: session closed";
    let circuit = List.fold_left edit_circuit t.e_circuit deltas in
    check_circuit ~fname:"Router.Eco.apply" t.e_rrg circuit;
    let res = reroute t circuit in
    (* An edited netlist that does not route leaves the pre-request routing
       in place, so the session stays usable. *)
    if Result.is_error res then restore t;
    res

  let circuit t = t.e_circuit

  let routed t = List.concat_map (fun br -> br.br_routed) t.e_batches

  let last_stats t = t.e_last
end

(* A scratch route: open a session, route once, close it.  The graph keeps
   the state the route ends in — waves: the final pass, even a failed one
   (useful for rendering); negotiated: the committed trees, or the entry
   state after a failure — and the journal is committed at the session
   base, so nothing this call wrote stays undoable. *)
let route ?config ?domains rrg circuit =
  let t = Eco.open_session ~fname:"Router.route" ?config ?domains rrg circuit in
  Fun.protect ~finally:(fun () -> Eco.close t) @@ fun () ->
  let r = Eco.reroute t circuit in
  G.Gstate.commit rrg.Rrg.graph t.Eco.e_cp0;
  Result.map (fun es -> es.Eco.stats) r

let min_channel_width ?(config = default_config) ?(domains = 1) ~arch_of_width ~circuit
    ~start () =
  if start < 1 then invalid_arg "Router.min_channel_width: start must be >= 1";
  let max_width = start + 15 in
  let try_width w =
    let rrg = Rrg.build (arch_of_width w) in
    match route ~config ~domains rrg circuit with Ok stats -> Some stats | Error _ -> None
  in
  (* Feasibility is assumed monotone in the width, and probes are ordered
     by cost: a routable width finishes in about one pass, while a failing
     one runs rip-up passes until the stall cutoff inside [route].  So from
     a routable [start] the search steps down one width at a time and stops
     at the first failure, which it pays for once; the answer is the last
     width that routed (or 1).  Starting near the minimum, as every caller
     does, that is a few routable probes and one failing one. *)
  let rec step_down w best =
    if w = 1 then Some (w, best)
    else
      match try_width (w - 1) with
      | Some stats -> step_down (w - 1) stats
      | None -> Some (w, best)
  in
  (* Invariant: [lo] failed, [hi] succeeded; bisect the gap between them. *)
  let rec bisect lo hi best =
    if hi - lo <= 1 then Some (hi, best)
    else begin
      let mid = (lo + hi) / 2 in
      match try_width mid with
      | Some stats -> bisect lo mid stats
      | None -> bisect mid hi best
    end
  in
  (* When [start] fails, bracket a succeeding width by galloping upward
     with doubling steps, then bisect inside the last gap.  The probe
     sequence is clamped to [max_width], so the cap itself is always
     attempted before giving up. *)
  let rec gallop_up lo step =
    let w = min max_width (lo + step) in
    match try_width w with
    | Some stats -> bisect lo w stats
    | None -> if w >= max_width then None else gallop_up w (2 * step)
  in
  match try_width start with
  | Some stats -> step_down start stats
  | None -> gallop_up start 1
