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
(* Shared distance caches                                              *)
(* ------------------------------------------------------------------ *)

(* The net's bounding box, widened by the margin, as one bit per node:
   the restriction every search of the footprint's cache tests, and the
   filter [candidates_for] applies.  Built once per footprint from the
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

(* One [Dist_cache] per restriction footprint, shared by every net with
   that footprint and persisting across passes.  A restricted search is
   fully determined by the net's bounding box (plus the constant margin),
   so the box is the key.  Entries are invalidated — not rebuilt — when a
   commit mutates the graph, and the counters accumulate over the whole
   [route] call, which is exactly the before/after work metric the bench
   reports. *)
type cache_key =
  | Full
  | Bbox of int * int * int * int

type cache_pool = {
  caches : (cache_key, G.Dist_cache.t) Hashtbl.t;
  pool_graph : G.Gstate.t;
}

let make_pool g = { caches = Hashtbl.create 32; pool_graph = g }

let pool_cache pool rrg net ~restricted =
  let key =
    if restricted then begin
      let c0, r0, c1, r1 = Netlist.bounding_box net in
      Bbox (c0, r0, c1, r1)
    end
    else Full
  in
  match Hashtbl.find_opt pool.caches key with
  | Some cache -> cache
  | None ->
      let restrict = if restricted then Some (bbox_region rrg net) else None in
      let cache = G.Dist_cache.create ?restrict pool.pool_graph in
      Hashtbl.add pool.caches key cache;
      cache

let pool_invalidate pool = Hashtbl.iter (fun _ c -> G.Dist_cache.invalidate c) pool.caches

let pool_runs pool = Hashtbl.fold (fun _ c acc -> acc + G.Dist_cache.runs c) pool.caches 0

let pool_settled pool =
  Hashtbl.fold (fun _ c acc -> acc + G.Dist_cache.settled_nodes c) pool.caches 0

let pool_h_evals pool =
  Hashtbl.fold (fun _ c acc -> acc + G.Dist_cache.future_cost_evals c) pool.caches 0

(* ------------------------------------------------------------------ *)
(* Per-net routing                                                     *)
(* ------------------------------------------------------------------ *)

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

(* One heuristic per net, over all its terminals: a lower bound to the
   nearest of a superset is still a lower bound to any queried subset, so
   every targeted query the construction makes through this cache shares
   it (and the per-net identity keys the cache entries, see Dist_cache). *)
let set_net_heuristic cache rrg (cnet : C.Net.t) =
  G.Dist_cache.set_future_cost cache
    (Some (Rrg.future_cost rrg ~targets:(cnet.C.Net.source :: cnet.C.Net.sinks)))

let solve_tree_alg pool alg rrg net ~restricted =
  let cnet = Netlist.rrg_net rrg net in
  let cache = pool_cache pool rrg net ~restricted in
  set_net_heuristic cache rrg cnet;
  let candidates = candidates_for rrg ~cap:max_candidates (G.Dist_cache.restriction cache) in
  alg.C.Routing_alg.solve ~candidates cache ~net:cnet

(* The CGE/SEGA/GBP-style baseline: each source-sink connection is routed
   as an independent two-pin net on its own wires.  Each connection is a
   single-target query, so in targeted mode the search stops at its sink;
   claiming a connection's wires bumps the graph version, which makes the
   shared cache recompute for the next sink exactly as a fresh run would. *)
let solve_two_pin pool rrg net ~restricted =
  let g = rrg.Rrg.graph in
  let cnet = Netlist.rrg_net rrg net in
  let src = cnet.C.Net.source in
  let cache = pool_cache pool rrg net ~restricted in
  (* The wires claimed per connection are released wholesale by rolling the
     journal back to this mark — no per-node bookkeeping. *)
  let cp = G.Gstate.checkpoint g in
  let route_sink edges sink =
    (* Per-sink heuristic: each connection is a pure point-to-point
       search, the sharpest case for goal-direction.  Claiming the
       previous connection's wires bumped the graph version, so no
       frontier survives between sinks anyway. *)
    G.Dist_cache.set_future_cost cache (Some (Rrg.future_cost rrg ~targets:[ sink ]));
    let r = G.Dist_cache.result_for cache ~src ~targets:[ sink ] in
    if not (G.Dijkstra.reachable r sink) then begin
      G.Gstate.rollback g cp;
      C.Routing_err.fail "two-pin"
    end;
    let path = G.Dijkstra.path_edges r sink in
    (* Claim this connection's wires so the next connection cannot reuse
       them — the decomposition's inefficiency. *)
    List.iter
      (fun v -> if Rrg.is_wire rrg v then G.Gstate.disable_node g v)
      (G.Dijkstra.path_nodes r sink);
    path @ edges
  in
  let edges = List.fold_left route_sink [] cnet.C.Net.sinks in
  G.Gstate.rollback g cp;
  G.Tree.of_edges edges

let solve_net pool cfg rrg net ~restricted =
  let critical = match cfg.critical_strategy with Some p -> p net | None -> false in
  if critical then solve_tree_alg pool critical_alg rrg net ~restricted
  else
    match cfg.strategy with
    | Tree_alg alg -> solve_tree_alg pool alg rrg net ~restricted
    | Two_pin_decomposition -> solve_two_pin pool rrg net ~restricted

(* Commit a routed net: consume its resources and add congestion pressure
   around the channel segments it used. *)
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
  List.iter
    (fun p ->
      G.Gstate.disable_node g (Rrg.pin rrg ~row:p.Netlist.row ~col:p.Netlist.col ~side:p.Netlist.side ~slot:p.Netlist.slot))
    (Netlist.net_pins net);
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

(* Two-pin decomposition claims wires through the live journal while it
   solves, so those nets cannot run on a frozen view; each one becomes a
   singleton batch solved serially at commit time — exactly the pre-batch
   behavior. *)
let serial_only cfg net =
  match cfg.strategy with
  | Tree_alg _ -> false
  | Two_pin_decomposition -> (
      match cfg.critical_strategy with Some p -> not (p net) | None -> true)

let boxes_disjoint (ac0, ar0, ac1, ar1) (bc0, br0, bc1, br1) =
  ac1 < bc0 || bc1 < ac0 || ar1 < br0 || br1 < ar0

type batch = {
  serial : bool;
  (* wave-reversed during construction; finalized to wave order *)
  mutable members : (Netlist.net * (int * int * int * int)) list;
  mutable size : int;
}

let partition_wave cfg order =
  (* [rev_batches] is newest-first; first-fit scans creation order. *)
  let rev_batches = ref [] in
  List.iter
    (fun net ->
      if serial_only cfg net then
        rev_batches :=
          { serial = true; members = [ (net, (0, 0, 0, 0)) ]; size = 1 } :: !rev_batches
      else begin
        let box = Netlist.bounding_box net in
        let fits b =
          (not b.serial)
          && b.size < par_batch
          && List.for_all (fun (_, b2) -> boxes_disjoint box b2) b.members
        in
        match List.find_opt fits (List.rev !rev_batches) with
        | Some b ->
            b.members <- (net, box) :: b.members;
            b.size <- b.size + 1
        | None ->
            rev_batches := { serial = false; members = [ (net, box) ]; size = 1 } :: !rev_batches
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

(* Worker-domain context: the pool plus a read-only RRG view and, per
   executing domain, distance caches of its own.  Caches are never shared
   across domains (Dist_cache is not thread-safe); the graph view is
   shared read-only.  Worker 0 is the calling domain, so [dcaches.(0)]
   also serves every serial solve.  A 1-domain pool spawns nothing and
   runs its waves inline. *)
type workers = {
  wpool : Fr_util.Pool.t;
  wrrg : Rrg.t;
  dcaches : cache_pool array;
}

(* Drop every domain's stale search results.  A lookup would drop a stale
   entry lazily, but a worker's pool is only looked up again under the
   same footprint, which in negotiated mode (only conflicted nets
   re-solve) is often never, so its dead frontiers would stay alive.
   Called on the main domain at serial points between pool waves, when no
   worker touches its caches. *)
let invalidate_all ctx = Array.iter pool_invalidate ctx.dcaches

(* Restricted solve first, full-graph retry on failure (unchanged). *)
let attempt caches cfg rrg net =
  let go restricted =
    match solve_net caches cfg rrg net ~restricted with
    | tree -> Some tree
    | exception C.Routing_err.Unroutable _ -> None
  in
  match go true with Some t -> Some t | None -> go false

(* The speculative-solve worker body, a named module-level function
   partial-applied at the Pool.map site.  Everything a worker touches is
   an explicit parameter: frdomcheck checks this as the worker root, and
   the allowlist carries the ownership argument for the per-worker dcaches
   (ctx.dcaches.(worker) is indexed by the worker's own id, so the writes
   the analysis sees on [ctx] never cross domains). *)
let solve_job ctx cfg nets ~worker i = attempt ctx.dcaches.(worker) cfg ctx.wrrg nets.(i)
  [@@frdomcheck.worker]

(* A serial solve: on the main domain, whose caches are worker 0's, and
   against the live RRG (two-pin nets claim wires through its journal). *)
let attempt_serial ctx cfg rrg net = attempt ctx.dcaches.(0) cfg rrg net

(* Solve [nets] against the current state, results in input order — one
   waves batch or one negotiated iteration.  The nets that solve as pure
   reads of the frozen state fan out over the pool when there are two or
   more, and each such fan-out counts in [par_batches] whatever the domain
   count; the serial-only two-pin nets, which claim wires through the live
   journal while solving (and roll back when done), then solve in order on
   the main domain. *)
let solve_all ~par_batches ctx cfg rrg nets =
  let results = Array.make (Array.length nets) None in
  let solve_here i = results.(i) <- attempt_serial ctx cfg rrg nets.(i) in
  let serial, frozen =
    List.partition (fun i -> serial_only cfg nets.(i)) (List.init (Array.length nets) Fun.id)
  in
  let frozen = Array.of_list frozen in
  let count = Array.length frozen in
  if count >= 2 then begin
    incr par_batches;
    let jobs = Array.map (Array.get nets) frozen in
    let solved = Fr_util.Pool.map ctx.wpool ~count (solve_job ctx cfg jobs) in
    Array.iteri (fun k r -> results.(frozen.(k)) <- r) solved
  end
  else Array.iter solve_here frozen;
  List.iter solve_here serial;
  results

(* ------------------------------------------------------------------ *)
(* Session plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let peak_occupancy rrg =
  List.fold_left (fun acc seg -> Int.max acc (Rrg.segment_occupancy rrg seg)) 0 (Rrg.segments rrg)

let check_route_args ~fname rrg circuit domains =
  (match Netlist.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg (fname ^ ": " ^ msg));
  if
    circuit.Netlist.rows <> rrg.Rrg.arch.Arch.rows
    || circuit.Netlist.cols <> rrg.Rrg.arch.Arch.cols
  then invalid_arg (fname ^ ": circuit does not fit architecture");
  if domains < 1 then invalid_arg (fname ^ ": domains must be >= 1")

let make_workers domains rrg =
  let wrrg = Rrg.read_only_view rrg in
  {
    wpool = Fr_util.Pool.create ~domains ();
    wrrg;
    dcaches = Array.init domains (fun _ -> make_pool wrrg.Rrg.graph);
  }

(* ------------------------------------------------------------------ *)
(* The routing session: the router's one engine                        *)
(* ------------------------------------------------------------------ *)

(* Every route runs in a session over one RRG.  A session keeps the
   journal live above its base checkpoint, so a netlist delta only needs a
   targeted rollback and a re-route of the affected suffix.  A scratch
   [route] is a session opened, routed once and closed, so the ECO
   identity (an apply equals a scratch route of the edited netlist) holds
   by construction for everything but the kept prefix or memo. *)
module Eco = struct
  type delta =
    | Add_net of Netlist.net
    | Remove_net of string
    | Retime_net of string * Netlist.pin_ref * Netlist.pin_ref list

  (* One landed batch of the maintained pass schedule: the journal mark
     taken before its first commit (rolling back to it erases this batch
     and everything after it), the member nets (the schedule key; the
     session's config fixes which of them are serial-only) and the commits
     it produced, in commit order. *)
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
    e_workers : workers;
    mutable e_circuit : Netlist.circuit;
    mutable e_batches : batch_rec list;
    mutable e_routed : routed_net list;
    mutable e_memo : (string, G.Tree.t) Hashtbl.t;
    mutable e_last : stats option;
    mutable e_closed : bool;
  }

  type eco_stats = {
    stats : stats;
    nets_total : int;
    nets_ripped : int;
    nets_reused : int;
  }

  (* Work counters summed over every domain's cache pools, snapshotted at
     each request's entry so the session reports per-request deltas rather
     than lifetime totals. *)
  type counters = {
    c_runs : int;
    c_settled : int;
    c_h_evals : int;
    c_mut : int;
    c_rb : int;
  }

  let snapshot_counters t =
    let g = t.e_rrg.Rrg.graph in
    let sum f = Array.fold_left (fun a p -> a + f p) 0 t.e_workers.dcaches in
    {
      c_runs = sum pool_runs;
      c_settled = sum pool_settled;
      c_h_evals = sum pool_h_evals;
      c_mut = G.Gstate.mutations g;
      c_rb = G.Gstate.rollbacks g;
    }

  let mk_stats t ~base ~par_batches ~par_conflicts routed n =
    let g = t.e_rrg.Rrg.graph in
    let now = snapshot_counters t in
    {
      passes = n;
      routed;
      total_wirelength = List.fold_left (fun a r -> a +. r.wires_used) 0. routed;
      total_max_path = List.fold_left (fun a r -> a +. r.max_path) 0. routed;
      peak_occupancy = peak_occupancy t.e_rrg;
      dijkstra_runs = now.c_runs - base.c_runs;
      settled_nodes = now.c_settled - base.c_settled;
      mutations = now.c_mut - base.c_mut;
      rollbacks = now.c_rb - base.c_rb;
      journal_depth = G.Gstate.peak_journal_depth g;
      domains = Array.length t.e_workers.dcaches;
      par_batches = !par_batches;
      par_conflicts = !par_conflicts;
      future_cost_evals = now.c_h_evals - base.c_h_evals;
    }

  let terminal_key net =
    String.concat "|" (List.map Netlist.pin_to_string (Netlist.net_pins net))

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
      e_workers = make_workers domains rrg;
      e_circuit = circuit;
      e_batches = [];
      e_routed = [];
      e_memo = Hashtbl.create 64;
      e_last = None;
      e_closed = false;
    }

  (* Run a batch sequence on the live state: per batch, one solve fan-out,
     then landing in wave order.  Returns the landed batches' ledger and
     the failed nets.  Rolling the journal back to a batch's mark and
     re-running the schedule suffix from that batch reproduces exactly what
     a full pass over the same schedule would have done from there. *)
  let run_batches t ~par_batches ~par_conflicts batches =
    let rrg = t.e_rrg and cfg = t.e_cfg and ctx = t.e_workers in
    let g = rrg.Rrg.graph in
    let failed = ref [] in
    let run_batch b =
      let cp = G.Gstate.checkpoint g in
      let landed = ref [] in
      let land_tree net tree =
        landed := land_net rrg t.e_base_w net tree :: !landed;
        (* The commit just mutated weights/enables: every domain's entries
           are stale. *)
        invalidate_all ctx
      in
      let land_result net = function
        | None ->
            (* Failed against the frozen state on the *full* graph.  Commits
               only disable resources within a pass, so the live state
               offers a subset of the frozen one — no point re-solving. *)
            failed := net.Netlist.net_name :: !failed
        | Some tree ->
            (* A speculative tree survives its batch-mates' commits iff
               every resource it uses is still enabled; weight changes never
               invalidate it (they only mean a fresh solve might have chosen
               differently). *)
            if G.Tree.uses_only_enabled g tree then land_tree net tree
            else begin
              (* A batch-mate committed first and took one of this tree's
                 wires: re-solve against the live state, serially. *)
              incr par_conflicts;
              match attempt_serial ctx cfg rrg net with
              | Some tree -> land_tree net tree
              | None -> failed := net.Netlist.net_name :: !failed
            end
      in
      let nets = Array.of_list (List.map fst b.members) in
      Array.iteri
        (fun i r -> land_result nets.(i) r)
        (solve_all ~par_batches ctx cfg rrg nets);
      { br_cp = cp; br_nets = Array.to_list nets; br_routed = List.rev !landed }
    in
    let ledger = List.rev (List.fold_left (fun acc b -> run_batch b :: acc) [] batches) in
    (ledger, List.rev !failed)

  (* Waves mode: rip-up passes with move-to-front ordering.  Pass 1 keeps
     what the ledger proves still valid and re-runs the rest; every later
     pass is a full re-route from the session base, the same code on the
     same inputs whatever pass 1 kept. *)
  let waves_route t circuit ~ripped ~reused ~par_batches ~par_conflicts =
    let g = t.e_rrg.Rrg.graph in
    let rip net = Hashtbl.replace ripped net.Netlist.net_name () in
    let pass n order =
      let schedule = partition_wave t.e_cfg order in
      if n = 1 then begin
        (* The landed state after any batch is a pure function of the
           schedule prefix up to it (speculative solves read the frozen
           batch-start state, conflict re-solves and commits read the live
           one — all deterministic), so the longest prefix of the new
           schedule that matches the ledger is already, verbatim, in the
           graph.  Everything from the first mismatched batch on is rolled
           back in one targeted journal rollback and re-run live; a fresh
           session has no ledger and rolls nothing back. *)
        let rec split acc stored sched =
          match (stored, sched) with
          | br :: stored', b :: sched' when batch_matches br b ->
              split (br :: acc) stored' sched'
          | _ -> (List.rev acc, stored, sched)
        in
        let pre, stale, suffix = split [] t.e_batches schedule in
        (match stale with br :: _ -> G.Gstate.rollback g br.br_cp | [] -> ());
        List.iter
          (fun br -> List.iter (fun n -> Hashtbl.replace reused n.Netlist.net_name ()) br.br_nets)
          pre;
        List.iter (fun b -> List.iter (fun (n, _) -> rip n) b.members) suffix;
        let landed, failed = run_batches t ~par_batches ~par_conflicts suffix in
        (pre @ landed, failed)
      end
      else begin
        Hashtbl.reset reused;
        List.iter rip circuit.Netlist.nets;
        (* Each later pass rips the previous one up by rolling the journal
           back to the base — O(entries the pass wrote), not O(V+E). *)
        G.Gstate.rollback g t.e_cp0;
        run_batches t ~par_batches ~par_conflicts schedule
      end
    in
    let rec loop n order ~best ~stalled =
      let ledger, failed = pass n order in
      if failed = [] then begin
        t.e_batches <- ledger;
        Ok (List.concat_map (fun br -> br.br_routed) ledger, n)
      end
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
     trees are torn down and the netlist negotiated from the base state.
     Iteration-1 solves are pure functions of that state, so they are
     served from the previous request's memo (keyed by terminals, so a
     memoized tree is exactly what a fresh solve would return); any net
     the loop solves is counted as ripped.  On [Error] the graph is rolled
     back to the base. *)
  let negotiated_route t circuit ~ripped ~reused ~par_batches =
    let rrg = t.e_rrg in
    let g = rrg.Rrg.graph in
    G.Gstate.rollback g t.e_cp0;
    let nets = Array.of_list (initial_order circuit.Netlist.nets) in
    let cm = G.Cost_model.create g in
    let n_nets = Array.length nets in
    let trees = Array.make n_nets G.Tree.empty in
    let iter1 = Array.make n_nets G.Tree.empty in
    let rec iterate n ~active ~best ~stalled =
      Array.iter
        (fun i ->
          Hashtbl.remove reused nets.(i).Netlist.net_name;
          Hashtbl.replace ripped nets.(i).Netlist.net_name ())
        active;
      let results =
        solve_all ~par_batches t.e_workers t.e_cfg rrg (Array.map (Array.get nets) active)
      in
      let missing = ref [] in
      Array.iteri
        (fun k r ->
          match r with
          | Some tree -> trees.(active.(k)) <- tree
          | None -> missing := nets.(active.(k)).Netlist.net_name :: !missing)
        results;
      if n = 1 then Array.blit trees 0 iter1 0 n_nets;
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
             mode does, in canonical net order. *)
          G.Gstate.rollback g t.e_cp0;
          let routed =
            Array.to_list (Array.mapi (fun i tree -> land_net rrg t.e_base_w nets.(i) tree) trees)
          in
          let memo = Hashtbl.create (2 * n_nets) in
          Array.iteri (fun i net -> Hashtbl.replace memo (terminal_key net) iter1.(i)) nets;
          t.e_memo <- memo;
          Ok (routed, n)
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
            (* The apply bumped the graph version: every domain's entries
               are stale, as in the waves mode. *)
            invalidate_all t.e_workers;
            iterate (n + 1) ~active:(Array.of_list !conflicted) ~best ~stalled
          end
        end
      end
    in
    let first = ref [] in
    for i = n_nets - 1 downto 0 do
      match Hashtbl.find_opt t.e_memo (terminal_key nets.(i)) with
      | Some tree ->
          trees.(i) <- tree;
          Hashtbl.replace reused nets.(i).Netlist.net_name ()
      | None -> first := i :: !first
    done;
    iterate 1 ~active:(Array.of_list !first) ~best:max_int ~stalled:0

  (* Route [circuit] in the session, keeping what the ledger or the memo
     proves still valid.  On [Ok] the session maintains the new routing;
     on [Error] it keeps the old one, while the graph holds the failed
     attempt's end state (waves: its final pass; negotiated: the base). *)
  let reroute t circuit =
    let g = t.e_rrg.Rrg.graph in
    (* Per-call stats hygiene: the peak journal depth is a high-water mark
       on the state, and the state outlives this call. *)
    G.Gstate.reset_peak_journal_depth g;
    let base = snapshot_counters t in
    let ripped = Hashtbl.create 64 and reused = Hashtbl.create 64 in
    let par_batches = ref 0 and par_conflicts = ref 0 in
    let res =
      match t.e_cfg.mode with
      | Waves -> waves_route t circuit ~ripped ~reused ~par_batches ~par_conflicts
      | Negotiated -> negotiated_route t circuit ~ripped ~reused ~par_batches
    in
    Result.map
      (fun (routed, n) ->
        let stats = mk_stats t ~base ~par_batches ~par_conflicts routed n in
        t.e_circuit <- circuit;
        t.e_routed <- routed;
        t.e_last <- Some stats;
        {
          stats;
          nets_total = List.length circuit.Netlist.nets;
          nets_ripped = Hashtbl.length ripped;
          nets_reused = Hashtbl.length reused;
        })
      res

  (* Re-establish the maintained routing after a failed [apply]: tear the
     failed attempt down and replay the stored trees.  Committing a known
     tree is deterministic given the commit order, so this reproduces the
     exact pre-request state (with fresh journal marks for the ledger). *)
  let restore t =
    let g = t.e_rrg.Rrg.graph in
    G.Gstate.rollback g t.e_cp0;
    (match t.e_cfg.mode with
    | Waves ->
        t.e_batches <-
          List.map
            (fun br ->
              let cp = G.Gstate.checkpoint g in
              List.iter (fun r -> commit t.e_rrg r.net r.tree) br.br_routed;
              { br with br_cp = cp })
            t.e_batches
    | Negotiated -> List.iter (fun r -> commit t.e_rrg r.net r.tree) t.e_routed);
    invalidate_all t.e_workers

  let close t =
    if not t.e_closed then begin
      t.e_closed <- true;
      Fr_util.Pool.shutdown t.e_workers.wpool
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
    (match Netlist.validate circuit with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Router.Eco.apply: " ^ msg));
    let res = reroute t circuit in
    (* An edited netlist that does not route leaves the pre-request routing
       in place, so the session stays usable. *)
    if Result.is_error res then restore t;
    res

  let circuit t = t.e_circuit

  let routed t = t.e_routed

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
