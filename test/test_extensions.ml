(* Tests for the extension algorithms: AHHK and BRBC (the paper's §2
   related-work tradeoff methods), Mehlhorn's fast KMB variant, and the
   batched IGMST mode. *)

module G = Fr_graph
module C = Fr_core
module Rng = Fr_util.Rng

let random_instance seed ~n ~m ~k =
  let rng = Rng.make seed in
  let g = G.Random_graph.connected rng ~n ~m ~wmin:0.5 ~wmax:3. in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k) in
  (g, net)

let star_triangle () =
  let g = G.Wgraph.create 4 in
  ignore (G.Wgraph.add_edge g 0 1 1.9);
  ignore (G.Wgraph.add_edge g 1 2 1.9);
  ignore (G.Wgraph.add_edge g 0 2 1.9);
  ignore (G.Wgraph.add_edge g 0 3 1.);
  ignore (G.Wgraph.add_edge g 1 3 1.);
  ignore (G.Wgraph.add_edge g 2 3 1.);
  G.Gstate.of_builder g

(* ------------------------------------------------------------------ *)
(* AHHK                                                               *)
(* ------------------------------------------------------------------ *)

let test_ahhk_c1_is_spt () =
  let g, net = random_instance 3 ~n:30 ~m:70 ~k:6 in
  let cache = G.Dist_cache.create g in
  let tree = C.Ahhk.solve ~c:1. cache ~net in
  Alcotest.(check bool) "arborescence at c=1" true (C.Eval.is_arborescence cache ~net ~tree);
  Alcotest.(check (float 1e-9)) "radius ratio 1" 1.
    (C.Ahhk.max_radius_ratio cache ~net ~tree)

let test_ahhk_c0_is_mst_like () =
  (* c=0 is Prim: the tree restricted to terminals costs no more than the
     pruned MST of the whole graph; at least it must be a valid tree. *)
  let g, net = random_instance 4 ~n:30 ~m:70 ~k:6 in
  let cache = G.Dist_cache.create g in
  let tree = C.Ahhk.solve ~c:0. cache ~net in
  Alcotest.(check bool) "valid" true (C.Eval.check cache ~net ~tree = Ok ())

let test_ahhk_rejects_bad_c () =
  let g, net = random_instance 5 ~n:10 ~m:20 ~k:3 in
  let cache = G.Dist_cache.create g in
  Alcotest.check_raises "c out of range" (Invalid_argument "Ahhk.solve: c outside [0,1]")
    (fun () -> ignore (C.Ahhk.solve ~c:1.5 cache ~net))

let test_ahhk_unroutable () =
  let g = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  let g = G.Gstate.of_builder g in
  let cache = G.Dist_cache.create g in
  let net = C.Net.make ~source:0 ~sinks:[ 2 ] in
  Alcotest.check_raises "disconnected" (C.Routing_err.Unroutable "AHHK") (fun () ->
      ignore (C.Ahhk.solve ~c:0.5 cache ~net))

let prop_ahhk_valid_all_c =
  QCheck.Test.make ~name:"AHHK valid trees across the c range" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 4))
    (fun (seed, ci) ->
      let c = float_of_int ci /. 4. in
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let cache = G.Dist_cache.create g in
      let tree = C.Ahhk.solve ~c cache ~net in
      C.Eval.check cache ~net ~tree = Ok ())

let test_ahhk_tradeoff_direction () =
  (* Over a fixed batch: radius dilation shrinks as c grows. *)
  let total_ratio c =
    let acc = ref 0. in
    for seed = 0 to 14 do
      let g, net = random_instance seed ~n:30 ~m:70 ~k:6 in
      let cache = G.Dist_cache.create g in
      let tree = C.Ahhk.solve ~c cache ~net in
      acc := !acc +. C.Ahhk.max_radius_ratio cache ~net ~tree
    done;
    !acc
  in
  Alcotest.(check bool) "radius(c=0) >= radius(c=1)" true (total_ratio 0. >= total_ratio 1. -. 1e-9)

(* ------------------------------------------------------------------ *)
(* BRBC                                                               *)
(* ------------------------------------------------------------------ *)

let test_brbc_radius_bound () =
  List.iter
    (fun epsilon ->
      for seed = 0 to 9 do
        let g, net = random_instance seed ~n:30 ~m:70 ~k:6 in
        let cache = G.Dist_cache.create g in
        let tree = C.Brbc.solve ~epsilon cache ~net in
        Alcotest.(check bool)
          (Printf.sprintf "eps=%.2f seed=%d bound" epsilon seed)
          true
          (C.Brbc.radius_bound_holds ~epsilon cache ~net ~tree);
        Alcotest.(check bool) "valid" true (C.Eval.check cache ~net ~tree = Ok ())
      done)
    [ 0.; 0.25; 1.; 4. ]

let test_brbc_eps0_is_arborescence () =
  let g, net = random_instance 8 ~n:30 ~m:70 ~k:6 in
  let cache = G.Dist_cache.create g in
  let tree = C.Brbc.solve ~epsilon:0. cache ~net in
  Alcotest.(check bool) "eps=0 -> shortest paths" true
    (C.Eval.is_arborescence cache ~net ~tree)

let test_brbc_relaxation_saves_wire () =
  (* Over a fixed batch, a generous radius budget can only help wirelength. *)
  let total epsilon =
    let acc = ref 0. in
    for seed = 0 to 14 do
      let g, net = random_instance seed ~n:30 ~m:70 ~k:6 in
      let cache = G.Dist_cache.create g in
      acc := !acc +. G.Tree.cost g (C.Brbc.solve ~epsilon cache ~net)
    done;
    !acc
  in
  Alcotest.(check bool) "wire(eps=4) <= wire(eps=0)" true (total 4. <= total 0. +. 1e-6)

let test_brbc_rejects_negative_eps () =
  let g, net = random_instance 9 ~n:10 ~m:20 ~k:3 in
  let cache = G.Dist_cache.create g in
  Alcotest.check_raises "negative eps" (Invalid_argument "Brbc.solve: epsilon < 0") (fun () ->
      ignore (C.Brbc.solve ~epsilon:(-1.) cache ~net))

let test_brbc_two_pin () =
  let g = star_triangle () in
  let cache = G.Dist_cache.create g in
  let net = C.Net.make ~source:0 ~sinks:[ 1 ] in
  let tree = C.Brbc.solve ~epsilon:1. cache ~net in
  Alcotest.(check (float 1e-9)) "shortest path" 1.9 (G.Tree.cost g tree)

(* ------------------------------------------------------------------ *)
(* Mehlhorn                                                           *)
(* ------------------------------------------------------------------ *)

let test_mehlhorn_star_triangle () =
  let g = star_triangle () in
  let t = C.Mehlhorn.solve g ~terminals:[ 0; 1; 2 ] in
  Alcotest.(check bool) "valid spanning tree" true
    (G.Tree.is_tree g t && G.Tree.spans g t [ 0; 1; 2 ]);
  (* Like KMB, the Voronoi variant has ratio 2(1-1/L); here either the
     triangle (3.8) or the hub star (3.0) is acceptable. *)
  let c = G.Tree.cost g t in
  Alcotest.(check bool) "within 2x opt" true (c <= 6.0 +. 1e-9 && c >= 3.0 -. 1e-9)

let test_mehlhorn_voronoi () =
  let g = star_triangle () in
  let owner, dist = C.Mehlhorn.voronoi g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "terminal owns itself" 0 owner.(0);
  Alcotest.(check (float 1e-9)) "terminal dist 0" 0. dist.(1);
  Alcotest.(check bool) "hub owned by someone" true (owner.(3) = 0 || owner.(3) = 1);
  Alcotest.(check (float 1e-9)) "hub dist 1" 1. dist.(3)

let test_mehlhorn_trivial () =
  let g = star_triangle () in
  Alcotest.(check int) "single terminal" 0
    (List.length (C.Mehlhorn.solve g ~terminals:[ 2 ]).G.Tree.edges)

let test_mehlhorn_unroutable () =
  let g = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  let g = G.Gstate.of_builder g in
  Alcotest.check_raises "disconnected" (C.Routing_err.Unroutable "Mehlhorn") (fun () ->
      ignore (C.Mehlhorn.solve g ~terminals:[ 0; 2 ]))

let prop_mehlhorn_two_approx =
  QCheck.Test.make ~name:"Mehlhorn within 2x exact, valid trees" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:18 ~m:40 ~k:4 in
      let terminals = C.Net.terminals net in
      let t = C.Mehlhorn.solve g ~terminals in
      let opt = C.Exact.steiner_cost g ~terminals in
      let c = G.Tree.cost g t in
      G.Tree.is_tree g t && G.Tree.spans g t terminals && c <= (2. *. opt) +. 1e-6)

let prop_mehlhorn_close_to_kmb =
  QCheck.Test.make ~name:"Mehlhorn within 1.5x of KMB on random nets" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let terminals = C.Net.terminals net in
      let cache = G.Dist_cache.create g in
      let mk = G.Tree.cost g (C.Mehlhorn.solve g ~terminals) in
      let kk = C.Kmb.cost cache ~terminals in
      (* Both are 2-approximations of the same optimum. *)
      mk <= (2. *. kk) +. 1e-6 && kk <= (2. *. mk) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Batched IGMST                                                      *)
(* ------------------------------------------------------------------ *)

let test_batched_finds_star_optimum () =
  let g = star_triangle () in
  let cache = G.Dist_cache.create g in
  let t = C.Igmst.solve ~batched:true C.Igmst.kmb cache ~terminals:[ 0; 1; 2 ] in
  Alcotest.(check (float 1e-9)) "optimal" 3. (G.Tree.cost g t)

let prop_batched_never_worse_than_kmb =
  QCheck.Test.make ~name:"batched IKMB <= KMB" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:30 ~m:70 ~k:5 in
      let cache = G.Dist_cache.create g in
      let terminals = C.Net.terminals net in
      let b = G.Tree.cost g (C.Igmst.solve ~batched:true C.Igmst.kmb cache ~terminals) in
      let k = C.Kmb.cost cache ~terminals in
      b <= k +. 1e-6)

let prop_batched_close_to_sequential =
  QCheck.Test.make ~name:"batched IKMB within 10% of sequential IKMB" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let cache = G.Dist_cache.create g in
      let terminals = C.Net.terminals net in
      let b = G.Tree.cost g (C.Igmst.solve ~batched:true C.Igmst.kmb cache ~terminals) in
      let s = G.Tree.cost g (C.Igmst.ikmb cache ~terminals) in
      b <= (1.10 *. s) +. 1e-6)

let () =
  Alcotest.run "fr_core extensions"
    [
      ( "ahhk",
        [
          Alcotest.test_case "c=1 is SPT" `Quick test_ahhk_c1_is_spt;
          Alcotest.test_case "c=0 is Prim-like" `Quick test_ahhk_c0_is_mst_like;
          Alcotest.test_case "rejects bad c" `Quick test_ahhk_rejects_bad_c;
          Alcotest.test_case "unroutable" `Quick test_ahhk_unroutable;
          Alcotest.test_case "tradeoff direction" `Quick test_ahhk_tradeoff_direction;
          QCheck_alcotest.to_alcotest prop_ahhk_valid_all_c;
        ] );
      ( "brbc",
        [
          Alcotest.test_case "radius bound holds" `Quick test_brbc_radius_bound;
          Alcotest.test_case "eps=0 is SPT" `Quick test_brbc_eps0_is_arborescence;
          Alcotest.test_case "relaxation saves wire" `Quick test_brbc_relaxation_saves_wire;
          Alcotest.test_case "rejects negative eps" `Quick test_brbc_rejects_negative_eps;
          Alcotest.test_case "two-pin" `Quick test_brbc_two_pin;
        ] );
      ( "mehlhorn",
        [
          Alcotest.test_case "star-triangle" `Quick test_mehlhorn_star_triangle;
          Alcotest.test_case "voronoi" `Quick test_mehlhorn_voronoi;
          Alcotest.test_case "trivial" `Quick test_mehlhorn_trivial;
          Alcotest.test_case "unroutable" `Quick test_mehlhorn_unroutable;
          QCheck_alcotest.to_alcotest prop_mehlhorn_two_approx;
          QCheck_alcotest.to_alcotest prop_mehlhorn_close_to_kmb;
        ] );
      ( "batched igmst",
        [
          Alcotest.test_case "star optimum" `Quick test_batched_finds_star_optimum;
          QCheck_alcotest.to_alcotest prop_batched_never_worse_than_kmb;
          QCheck_alcotest.to_alcotest prop_batched_close_to_sequential;
        ] );
    ]
