(* Tests for the paper's motivation/extension features: Elmore delay
   evaluation (technology-sensitive routing, §1) and the 3D generalization
   (conclusion, references [1,2]). *)

module G = Fr_graph
module C = Fr_core
module Rng = Fr_util.Rng

(* ------------------------------------------------------------------ *)
(* Delay                                                              *)
(* ------------------------------------------------------------------ *)

(* Source - single wire of length L - sink: analytic Elmore delay is
   Rd*(cL + Cs) + rL*(cL/2 + Cs), with every parasitic 1 per unit. *)
let test_elmore_two_pin_analytic () =
  let g = G.Wgraph.create 2 in
  let len = 3. in
  ignore (G.Wgraph.add_edge g 0 1 len);
  let g = G.Gstate.of_builder g in
  let net = C.Net.make ~source:0 ~sinks:[ 1 ] in
  let tree = G.Tree.of_edges [ 0 ] in
  let expected = (len +. 1.) +. (len *. ((len /. 2.) +. 1.)) in
  Alcotest.(check (float 1e-9)) "analytic delay" expected (C.Delay.max_delay g ~tree ~net)

let test_elmore_farther_sink_is_slower () =
  (* A path source - a - b under one tree: a sink at b is slower than a
     sink at a. *)
  let g = G.Wgraph.create 3 in
  let e0 = G.Wgraph.add_edge g 0 1 1. in
  let e1 = G.Wgraph.add_edge g 1 2 1. in
  let g = G.Gstate.of_builder g in
  let tree = G.Tree.of_edges [ e0; e1 ] in
  let delay sink = C.Delay.max_delay g ~tree ~net:(C.Net.make ~source:0 ~sinks:[ sink ]) in
  Alcotest.(check bool) "monotone along path" true (delay 2 > delay 1);
  Alcotest.(check (float 1e-9)) "farther sink analytic" 7. (delay 2)

let test_elmore_requires_spanning () =
  let g = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  let g = G.Gstate.of_builder g in
  let net = C.Net.make ~source:0 ~sinks:[ 2 ] in
  Alcotest.check_raises "non-spanning" (Invalid_argument "Delay.max_delay: tree does not span net")
    (fun () -> ignore (C.Delay.max_delay g ~tree:G.Tree.empty ~net))

let test_elmore_arborescence_helps () =
  (* Over a fixed batch of congested-grid nets, IDOM's critical-sink
     Elmore delay is no worse on total than IKMB's (shorter paths dominate
     the path-R term). *)
  let total_ikmb = ref 0. and total_idom = ref 0. in
  for seed = 0 to 9 do
    let rng = Rng.make seed in
    let grid = Fr_exp.Congestion.congested_grid ~width:14 ~height:14 rng ~k:10 in
    let g = grid.G.Grid.graph in
    let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:6) in
    let cache = G.Dist_cache.create g in
    let t_ikmb = C.Igmst.ikmb cache ~terminals:(C.Net.terminals net) in
    let t_idom = C.Idom.solve cache ~net in
    total_ikmb := !total_ikmb +. C.Delay.max_delay g ~tree:t_ikmb ~net;
    total_idom := !total_idom +. C.Delay.max_delay g ~tree:t_idom ~net
  done;
  Alcotest.(check bool)
    (Printf.sprintf "IDOM delay (%.0f) <= IKMB delay (%.0f)" !total_idom !total_ikmb)
    true
    (!total_idom <= !total_ikmb *. 1.02)

(* ------------------------------------------------------------------ *)
(* 3D grids                                                           *)
(* ------------------------------------------------------------------ *)

let test_grid3_structure () =
  let gr = G.Grid3.create ~width:3 ~height:4 ~depth:2 () in
  Alcotest.(check int) "nodes" 24 (G.Gstate.num_nodes gr.G.Grid3.graph);
  (* edges: x: 2*4*2=16, y: 3*3*2=18, z: 3*4*1=12 *)
  Alcotest.(check int) "edges" 46 (G.Gstate.num_edges gr.G.Grid3.graph);
  (* row-major within a layer, layers stacked *)
  Alcotest.(check int) "node id" 17 (G.Grid3.node gr ~x:2 ~y:1 ~z:1)

let test_grid3_via_weights () =
  let gr = G.Grid3.create ~via_weight:5. ~width:2 ~height:2 ~depth:2 () in
  let a = G.Grid3.node gr ~x:0 ~y:0 ~z:0 and b = G.Grid3.node gr ~x:0 ~y:0 ~z:1 in
  let r = G.Dijkstra.run gr.G.Grid3.graph ~src:a in
  Alcotest.(check (float 1e-9)) "via cost" 5. (G.Dijkstra.dist r b)

let test_grid3_bad_args () =
  Alcotest.check_raises "empty" (Invalid_argument "Grid3.create: empty grid") (fun () ->
      ignore (G.Grid3.create ~width:2 ~height:0 ~depth:1 ()));
  let gr = G.Grid3.create ~width:2 ~height:2 ~depth:2 () in
  Alcotest.check_raises "node range" (Invalid_argument "Grid3.node: out of range") (fun () ->
      ignore (G.Grid3.node gr ~x:0 ~y:0 ~z:2))

(* All eight algorithms work unchanged on 3D fabrics (the conclusion's
   generalization claim): valid trees, and arborescences preserve every
   sink's 3D shortest-path distance. *)
let test_all_algorithms_on_3d () =
  let gr = G.Grid3.create ~width:6 ~height:6 ~depth:3 () in
  let g = gr.G.Grid3.graph in
  let node = G.Grid3.node gr in
  let net =
    C.Net.make ~source:(node ~x:0 ~y:0 ~z:0)
      ~sinks:[ node ~x:5 ~y:2 ~z:2; node ~x:2 ~y:5 ~z:1; node ~x:4 ~y:4 ~z:0 ]
  in
  let cache = G.Dist_cache.create g in
  List.iter
    (fun (alg : C.Routing_alg.t) ->
      let tree = alg.C.Routing_alg.solve cache ~net in
      Alcotest.(check bool) (alg.C.Routing_alg.name ^ " valid on 3D") true
        (C.Eval.check cache ~net ~tree = Ok ());
      match alg.C.Routing_alg.kind with
      | C.Routing_alg.Arborescence ->
          Alcotest.(check bool) (alg.C.Routing_alg.name ^ " optimal 3D paths") true
            (C.Eval.is_arborescence cache ~net ~tree)
      | C.Routing_alg.Steiner -> ())
    C.Routing_alg.all

let prop_3d_steiner_bounds =
  QCheck.Test.make ~name:"3D: exact <= IKMB <= KMB <= 2*exact" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let gr = G.Grid3.create ~width:4 ~height:4 ~depth:3 () in
      let g = gr.G.Grid3.graph in
      let terminals = G.Random_graph.random_net rng g ~k:4 in
      let cache = G.Dist_cache.create g in
      let opt = C.Exact.steiner_cost g ~terminals in
      let kmb = C.Kmb.cost cache ~terminals in
      let ikmb = G.Tree.cost g (C.Igmst.ikmb cache ~terminals) in
      opt <= ikmb +. 1e-6 && ikmb <= kmb +. 1e-6 && kmb <= (2. *. opt) +. 1e-6)

let () =
  Alcotest.run "fr future-work features"
    [
      ( "delay",
        [
          Alcotest.test_case "two-pin analytic" `Quick test_elmore_two_pin_analytic;
          Alcotest.test_case "monotone along paths" `Quick test_elmore_farther_sink_is_slower;
          Alcotest.test_case "requires spanning" `Quick test_elmore_requires_spanning;
          Alcotest.test_case "arborescences cut delay" `Quick test_elmore_arborescence_helps;
        ] );
      ( "grid3",
        [
          Alcotest.test_case "structure" `Quick test_grid3_structure;
          Alcotest.test_case "via weights" `Quick test_grid3_via_weights;
          Alcotest.test_case "bad args" `Quick test_grid3_bad_args;
          Alcotest.test_case "all 8 algorithms on 3D" `Quick test_all_algorithms_on_3d;
          QCheck_alcotest.to_alcotest prop_3d_steiner_bounds;
        ] );
    ]
