(* Negotiated-congestion mode: Cost_model accounting and pricing, the
   candidate-thinning and deep-tree hot-path fixes, and the router-level
   convergence / validity / determinism properties. *)

module G = Fr_graph
module C = Fr_core
module F = Fr_fpga
module CM = Fr_graph.Cost_model

(* ------------------------------------------------------------------ *)
(* Cost_model fixtures                                                *)
(* ------------------------------------------------------------------ *)

(* Path 0 - 1 - 2 - 3 with unit base weights. *)
let path_fixture () =
  let b = G.Wgraph.create 4 in
  let e01 = G.Wgraph.add_edge b 0 1 1. in
  let e12 = G.Wgraph.add_edge b 1 2 1. in
  let e23 = G.Wgraph.add_edge b 2 3 1. in
  (G.Gstate.of_builder b, e01, e12, e23)

let test_usage_accounting () =
  let g, _, _, _ = path_fixture () in
  let cm = CM.create g in
  CM.use_nodes cm [ 0; 1; 2 ];
  CM.use_nodes cm [ 1; 2; 3 ];
  CM.use_nodes cm [ 2 ];
  Alcotest.(check int) "usage 0" 1 (CM.usage cm 0);
  Alcotest.(check int) "usage 1" 2 (CM.usage cm 1);
  Alcotest.(check int) "usage 2" 3 (CM.usage cm 2);
  (* capacity 1: overuse = (2-1) + (3-1) *)
  Alcotest.(check int) "overuse" 3 (CM.overuse cm);
  Alcotest.(check (list int)) "overused nodes" [ 1; 2 ] (CM.overused_nodes cm);
  (* rip-up of the second net restores the first one's view *)
  CM.release_nodes cm [ 1; 2; 3 ];
  Alcotest.(check int) "overuse after release" 1 (CM.overuse cm);
  Alcotest.(check (list int)) "overused after release" [ 2 ] (CM.overused_nodes cm);
  Alcotest.check_raises "over-release rejected"
    (Invalid_argument "Cost_model.release_nodes: node is not in use") (fun () ->
      CM.release_nodes cm [ 3 ]);
  CM.begin_iteration cm;
  Alcotest.(check int) "reset" 0 (CM.overuse cm);
  Alcotest.(check int) "usage cleared" 0 (CM.usage cm 2)

let test_history_monotone () =
  let g, _, _, _ = path_fixture () in
  let cm = CM.create g in
  let prev = ref (-1.) in
  for _round = 1 to 5 do
    CM.begin_iteration cm;
    CM.use_nodes cm [ 1 ];
    CM.use_nodes cm [ 1 ];
    (* overused every round *)
    CM.escalate cm;
    let h = CM.history cm 1 in
    Alcotest.(check bool) "history non-decreasing" true (h >= !prev);
    Alcotest.(check bool) "history grows on overuse" true (h > !prev);
    prev := h
  done;
  (* a clean round leaves history untouched *)
  CM.begin_iteration cm;
  CM.use_nodes cm [ 1 ];
  CM.escalate cm;
  Alcotest.(check (float 1e-9)) "history frozen without overuse" !prev (CM.history cm 1);
  Alcotest.(check (float 1e-9)) "untouched node has no history" 0. (CM.history cm 3)

let test_effective_cost_formula () =
  let g, e01, e12, _ = path_fixture () in
  (* the model's constants: present factor 0.5 growing 1.3x per
     escalation, history step 0.4, capacity 1 *)
  let cm = CM.create g in
  (* two nets on node 1, one on node 2, none elsewhere *)
  CM.use_nodes cm [ 1 ];
  CM.use_nodes cm [ 1 ];
  CM.use_nodes cm [ 2 ];
  CM.escalate cm;
  (* history: node 1 gains 0.4 * (2 - 1); present factor now 0.5 * 1.3 *)
  CM.apply cm;
  let pf = 0.5 *. 1.3 in
  (* prospective present: usage + 1 - capacity *)
  let p0 = pf *. 0. and p1 = pf *. 2. and p2 = pf *. 1. in
  let h1 = 0.4 in
  let expect01 = 1. *. (1. +. (0.5 *. (p0 +. p1))) *. (1. +. (0.5 *. h1)) in
  let expect12 = 1. *. (1. +. (0.5 *. (p1 +. p2))) *. (1. +. (0.5 *. h1)) in
  Alcotest.(check (float 1e-9)) "edge 0-1 priced" expect01 (G.Gstate.weight g e01);
  Alcotest.(check (float 1e-9)) "edge 1-2 priced" expect12 (G.Gstate.weight g e12)

let test_apply_invalidates_caches () =
  let g, _, _, _ = path_fixture () in
  let cm = CM.create g in
  let cache = G.Dist_cache.create g in
  Alcotest.(check (float 1e-9)) "base distance" 3. (G.Dist_cache.dist cache ~src:0 ~dst:3);
  let v0 = G.Gstate.version g in
  CM.use_nodes cm [ 1 ];
  CM.use_nodes cm [ 1 ];
  CM.escalate cm;
  CM.apply cm;
  Alcotest.(check bool) "version bumped" true (G.Gstate.version g > v0);
  Alcotest.check_raises "a cache made before the apply refuses"
    (Invalid_argument "Dist_cache.dist: graph mutated since the cache was created") (fun () ->
      ignore (G.Dist_cache.dist cache ~src:0 ~dst:3));
  Alcotest.(check bool)
    "a fresh cache reads the prices" true
    (G.Dist_cache.dist (G.Dist_cache.create g) ~src:0 ~dst:3 > 3.)

let test_create_rejects_views () =
  let g, _, _, _ = path_fixture () in
  Alcotest.check_raises "read-only view"
    (Invalid_argument "Cost_model.create: read-only view") (fun () ->
      ignore (CM.create (G.Gstate.read_only_view g)))

(* ------------------------------------------------------------------ *)
(* candidates_for thinning bounds (stride bugfix)                     *)
(* ------------------------------------------------------------------ *)

let test_candidate_thinning_bounds () =
  let rrg = F.Rrg.build (F.Arch.xc4000 ~rows:8 ~cols:8 ~channel_width:8) in
  let total = F.Rrg.num_wires rrg in
  List.iter
    (fun cap ->
      let kept = List.length (F.Router.candidates_for rrg ~cap None) in
      if total <= cap then Alcotest.(check int) "no thinning needed" total kept
      else begin
        if kept > cap then Alcotest.failf "cap %d: kept %d > cap" cap kept;
        (* The old floor-based stride could keep barely more than cap/2;
           the ceil stride must stay in the upper half of the budget. *)
        if 2 * kept <= cap then Alcotest.failf "cap %d: kept %d wastes the budget" cap kept
      end)
    [ 1; 2; 3; 10; 100; 999; total - 1; total; total + 1 ]

(* ------------------------------------------------------------------ *)
(* Tree.max_path_length on a deep path-shaped tree                    *)
(* ------------------------------------------------------------------ *)

let test_max_path_deep_tree () =
  let n = 200_000 in
  let b = G.Wgraph.create n in
  let edges = List.init (n - 1) (fun i -> G.Wgraph.add_edge b i (i + 1) 1.) in
  let g = G.Gstate.of_builder b in
  let tree = G.Tree.of_edges edges in
  (* OCaml 5 grows the stack on demand, so the recursive traversal must
     return the exact length on a path this deep. *)
  let d = G.Tree.max_path_length ~weight:(fun _ -> 1.) g tree ~src:0 ~sinks:[ n - 1; n / 2 ] in
  Alcotest.(check (float 1e-9)) "deep path length" (float_of_int (n - 1)) d

(* ------------------------------------------------------------------ *)
(* Negotiated routing: convergence, validity, determinism             *)
(* ------------------------------------------------------------------ *)

let route_negotiated ?(strategy = F.Router.default_config.F.Router.strategy) name ~domains
    ~width =
  let spec = Option.get (F.Circuits.find_spec name) in
  let config = { (F.Router.config_with ~mode:F.Router.Negotiated ()) with F.Router.strategy } in
  let circuit = F.Circuits.generate spec in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:width) in
  match F.Router.route ~config ~domains rrg circuit with
  | Ok stats -> (circuit, rrg, stats)
  | Error f ->
      Alcotest.failf "%s failed to converge at W=%d with %d domains (%d iterations)" name width
        domains f.F.Router.passes_tried

(* Convergence is checked from the outside rather than trusted from the
   router: every net routed, every tree a valid spanning tree of its
   terminals, and no node in two trees (zero overuse). *)
let check_converged (circuit : F.Netlist.circuit) rrg stats =
  let g = rrg.F.Rrg.graph in
  Alcotest.(check int) "all nets routed" (List.length circuit.F.Netlist.nets)
    (List.length stats.F.Router.routed);
  List.iter
    (fun r ->
      let cnet = F.Netlist.rrg_net rrg r.F.Router.net in
      Alcotest.(check bool)
        (r.F.Router.net.F.Netlist.net_name ^ " spans")
        true
        (G.Tree.spans g r.F.Router.tree (C.Net.terminals cnet));
      Alcotest.(check bool)
        (r.F.Router.net.F.Netlist.net_name ^ " is a tree")
        true
        (G.Tree.is_tree g r.F.Router.tree))
    stats.F.Router.routed;
  let owner = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt owner v with
          | Some other ->
              Alcotest.failf "node %d used by both %s and %s" v other
                r.F.Router.net.F.Netlist.net_name
          | None -> Hashtbl.replace owner v r.F.Router.net.F.Netlist.net_name)
        (G.Tree.nodes g r.F.Router.tree))
    stats.F.Router.routed

let canonical_trees stats =
  List.map
    (fun r ->
      (r.F.Router.net.F.Netlist.net_name, List.sort Int.compare r.F.Router.tree.G.Tree.edges))
    stats.F.Router.routed
  |> List.sort compare

(* term1 at W=8, the waves router's minimum width: the negotiated route
   converges there.  Its iteration count and quality are the benchmark's
   negotiated-route golden, so any change to the trees shows here. *)
let term1_w8 = lazy (route_negotiated "term1" ~domains:1 ~width:8)

let check_term1_golden ~domains stats =
  let what s = Printf.sprintf "%s (domains=%d)" s domains in
  Alcotest.(check int) (what "iterations") 40 stats.F.Router.passes;
  Alcotest.(check (float 0.)) (what "wirelength") 829. stats.F.Router.total_wirelength;
  Alcotest.(check (float 0.)) (what "max path") 723. stats.F.Router.total_max_path

let test_convergence_and_validity () =
  let circuit, rrg, stats = Lazy.force term1_w8 in
  check_converged circuit rrg stats;
  check_term1_golden ~domains:1 stats

let check_same_route what ~domains s1 s =
  let check_int field f =
    Alcotest.(check int) (Printf.sprintf "%s: %s (domains=%d)" what field domains) (f s1) (f s)
  in
  check_int "par_batches" (fun s -> s.F.Router.par_batches);
  (* Every solve creates its own caches and searches, so the search work
     does not depend on which domain ran it either. *)
  check_int "dijkstra_runs" (fun s -> s.F.Router.dijkstra_runs);
  check_int "settled_nodes" (fun s -> s.F.Router.settled_nodes);
  check_int "future_cost_evals" (fun s -> s.F.Router.future_cost_evals);
  Alcotest.(check bool)
    (Printf.sprintf "%s: trees bit-identical (domains=%d)" what domains)
    true
    (canonical_trees s1 = canonical_trees s)

let test_domain_determinism () =
  let _, _, s1 = Lazy.force term1_w8 in
  List.iter
    (fun domains ->
      let _, _, s = route_negotiated "term1" ~domains ~width:8 in
      check_term1_golden ~domains s;
      check_same_route "term1 W=8" ~domains s1 s)
    [ 2; 4 ];
  (* Two-pin decomposition claims each connection's wires in its solve's
     own bitset, so its solves fan out like any other: every iteration's
     conflicted nets solve as one batch.  term1 converges at W=24. *)
  let route domains =
    let _, _, s =
      route_negotiated ~strategy:F.Router.Two_pin_decomposition "term1" ~domains ~width:24
    in
    s
  in
  let t1 = route 1 in
  Alcotest.(check bool) "two-pin solves fan out" true (t1.F.Router.par_batches > 0);
  Alcotest.(check bool) "two-pin searches goal-directed" true (t1.F.Router.future_cost_evals > 0);
  List.iter
    (fun domains -> check_same_route "term1 two-pin W=24" ~domains t1 (route domains))
    [ 2; 4 ]

(* apex7 at its published waves width W=10, on the domain pool. *)
let test_apex7_converges () =
  let circuit, rrg, stats = route_negotiated "apex7" ~domains:2 ~width:10 in
  check_converged circuit rrg stats

let () =
  Alcotest.run "negotiated"
    [
      ( "cost_model",
        [
          Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
          Alcotest.test_case "history monotone" `Quick test_history_monotone;
          Alcotest.test_case "effective cost formula" `Quick test_effective_cost_formula;
          Alcotest.test_case "apply invalidates caches" `Quick test_apply_invalidates_caches;
          Alcotest.test_case "create guards" `Quick test_create_rejects_views;
        ] );
      ( "hot_path_fixes",
        [
          Alcotest.test_case "candidate thinning bounds" `Quick test_candidate_thinning_bounds;
          Alcotest.test_case "deep-tree max path" `Quick test_max_path_deep_tree;
        ] );
      ( "router",
        [
          Alcotest.test_case "convergence and validity" `Slow test_convergence_and_validity;
          Alcotest.test_case "domains 1/2/4 identical" `Slow test_domain_determinism;
          Alcotest.test_case "apex7 converges at W=10" `Slow test_apex7_converges;
        ] );
    ]
