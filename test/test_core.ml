(* Unit, integration, and property tests for the paper's core algorithms. *)

module G = Fr_graph
module C = Fr_core
module Rng = Fr_util.Rng

let cache_of g = G.Dist_cache.create g

(* The 3-terminal "star vs triangle" instance with unique shortest paths:
   terminals A,B,C pairwise joined by weight-1.9 edges, and a Steiner hub s
   joined to each by weight-1 edges.  KMB alone returns the 3.8 triangle
   path; IKMB/ZEL/IZEL find the optimal 3.0 star. *)
let star_triangle () =
  let g = G.Wgraph.create 4 in
  let a = 0 and b = 1 and c = 2 and s = 3 in
  ignore (G.Wgraph.add_edge g a b 1.9);
  ignore (G.Wgraph.add_edge g b c 1.9);
  ignore (G.Wgraph.add_edge g a c 1.9);
  ignore (G.Wgraph.add_edge g a s 1.);
  ignore (G.Wgraph.add_edge g b s 1.);
  ignore (G.Wgraph.add_edge g c s 1.);
  (G.Gstate.of_builder g, [ a; b; c ], s)

(* Source A with sinks B and C, both at distance 2: either directly (2.0)
   or through the shared Steiner node m (1+1).  DOM pays 4, IDOM/PFA fold
   through m and pay 3. *)
let shared_hub () =
  let g = G.Wgraph.create 4 in
  let a = 0 and b = 1 and c = 2 and m = 3 in
  ignore (G.Wgraph.add_edge g a b 2.);
  ignore (G.Wgraph.add_edge g a c 2.);
  ignore (G.Wgraph.add_edge g a m 1.);
  ignore (G.Wgraph.add_edge g m b 1.);
  ignore (G.Wgraph.add_edge g m c 1.);
  (G.Gstate.of_builder g, C.Net.make ~source:a ~sinks:[ b; c ], m)

let random_instance seed ~n ~m ~k =
  let rng = Rng.make seed in
  let g = G.Random_graph.connected rng ~n ~m ~wmin:0.5 ~wmax:3. in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k) in
  (g, net)

(* ------------------------------------------------------------------ *)
(* Net                                                                *)
(* ------------------------------------------------------------------ *)

let test_net_make () =
  let n = C.Net.make ~source:3 ~sinks:[ 1; 2; 1; 3 ] in
  Alcotest.(check (list int)) "dedup, source removed" [ 1; 2 ] n.C.Net.sinks;
  Alcotest.(check (list int)) "terminals" [ 3; 1; 2 ] (C.Net.terminals n)

let test_net_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Net.of_terminals: empty net") (fun () ->
      ignore (C.Net.of_terminals []));
  Alcotest.check_raises "negative" (Invalid_argument "Net.make: negative node id") (fun () ->
      ignore (C.Net.make ~source:0 ~sinks:[ -1 ]))

(* ------------------------------------------------------------------ *)
(* KMB                                                                *)
(* ------------------------------------------------------------------ *)

let test_kmb_two_pins_is_shortest_path () =
  let g, _, _ = star_triangle () in
  let cache = cache_of g in
  let t = C.Kmb.solve cache ~terminals:[ 0; 1 ] in
  Alcotest.(check (float 1e-9)) "shortest path" 1.9 (G.Tree.cost g t)

let test_kmb_star_triangle () =
  let g, terminals, _ = star_triangle () in
  let cache = cache_of g in
  let t = C.Kmb.solve cache ~terminals in
  Alcotest.(check (float 1e-9)) "KMB stays on the triangle" 3.8 (G.Tree.cost g t);
  Alcotest.(check bool) "valid tree" true (G.Tree.is_tree g t);
  Alcotest.(check bool) "spans" true (G.Tree.spans g t terminals)

let test_kmb_single_terminal () =
  let g, _, _ = star_triangle () in
  let cache = cache_of g in
  let t = C.Kmb.solve cache ~terminals:[ 2 ] in
  Alcotest.(check int) "empty tree" 0 (List.length t.G.Tree.edges)

let test_kmb_unroutable () =
  let g = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  let g = G.Gstate.of_builder g in
  let cache = cache_of g in
  Alcotest.check_raises "disconnected" (C.Routing_err.Unroutable "KMB") (fun () ->
      ignore (C.Kmb.solve cache ~terminals:[ 0; 2 ]))

(* ------------------------------------------------------------------ *)
(* ZEL                                                                *)
(* ------------------------------------------------------------------ *)

let zel_cost ?memo cache ~terminals =
  G.Tree.cost (G.Dist_cache.graph cache) (C.Zel.solve ?memo cache ~terminals)

let izel cache ~terminals = C.Igmst.solve (C.Igmst.zel ()) cache ~terminals

let test_zel_star_triangle () =
  let g, terminals, _ = star_triangle () in
  let cache = cache_of g in
  let t = C.Zel.solve cache ~terminals in
  Alcotest.(check (float 1e-9)) "ZEL contracts the triple to the hub" 3. (G.Tree.cost g t)

let test_zel_memo_reuse () =
  let g, terminals, _ = star_triangle () in
  let cache = cache_of g in
  let memo = C.Zel.create_memo () in
  let c1 = zel_cost ~memo cache ~terminals in
  let c2 = zel_cost ~memo cache ~terminals in
  Alcotest.(check (float 1e-9)) "memoized result identical" c1 c2

let test_zel_small_nets_fall_back_to_kmb () =
  let g, _, _ = star_triangle () in
  let cache = cache_of g in
  let z = zel_cost cache ~terminals:[ 0; 1 ] in
  let k = C.Kmb.cost cache ~terminals:[ 0; 1 ] in
  Alcotest.(check (float 1e-9)) "2-pin identical" k z

(* ------------------------------------------------------------------ *)
(* IGMST                                                              *)
(* ------------------------------------------------------------------ *)

let test_ikmb_improves_star_triangle () =
  let g, terminals, s = star_triangle () in
  let cache = cache_of g in
  let steiner = C.Igmst.steiner_nodes C.Igmst.kmb cache ~terminals in
  Alcotest.(check (list int)) "hub selected" [ s ] steiner;
  let t = C.Igmst.ikmb cache ~terminals in
  Alcotest.(check (float 1e-9)) "optimal" 3. (G.Tree.cost g t)

let test_izel_star_triangle () =
  let g, terminals, _ = star_triangle () in
  let cache = cache_of g in
  let t = izel cache ~terminals in
  Alcotest.(check (float 1e-9)) "optimal" 3. (G.Tree.cost g t)

let test_igmst_candidate_restriction () =
  let g, terminals, s = star_triangle () in
  let cache = cache_of g in
  (* Forbidding the hub forces IKMB back to the KMB solution. *)
  let t = C.Igmst.ikmb ~candidates:[] cache ~terminals in
  Alcotest.(check (float 1e-9)) "no candidates -> KMB" 3.8 (G.Tree.cost g t);
  let t' = C.Igmst.ikmb ~candidates:[ s ] cache ~terminals in
  Alcotest.(check (float 1e-9)) "hub candidate suffices" 3. (G.Tree.cost g t')

let prop_ikmb_never_worse_than_kmb =
  QCheck.Test.make ~name:"cost(IKMB) <= cost(KMB)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:30 ~m:70 ~k:5 in
      let cache = cache_of g in
      let terminals = C.Net.terminals net in
      let k = C.Kmb.cost cache ~terminals in
      let ik = G.Tree.cost g (C.Igmst.ikmb cache ~terminals) in
      ik <= k +. 1e-6)

let prop_izel_never_worse_than_zel =
  QCheck.Test.make ~name:"cost(IZEL) <= cost(ZEL)" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:20 ~m:45 ~k:4 in
      let cache = cache_of g in
      let terminals = C.Net.terminals net in
      let z = zel_cost cache ~terminals in
      let iz = G.Tree.cost g (izel cache ~terminals) in
      iz <= z +. 1e-6)

(* The quick scan's scoring step must rank exactly as running
   [Mst.prim_dense] on every candidate would, bit for bit, whether or not
   its skip rule drops the candidate first.  Small integer weights (some
   scaled, so sums round) force ties in both the pick rule and the final
   sort, and some pairs are unreachable.  Scales from 1e6 to 1e9, the
   size of late negotiated prices, make a sum's rounding error exceed the
   filter's 1e-7, so only the sum bound's margin keeps a candidate that
   wins by rounding alone. *)
let prop_rank_candidates_matches_prim =
  QCheck.Test.make ~name:"candidate scan = prim_dense on every candidate" ~count:1100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = 3 + Rng.int rng 14 in
      let scales = [| 1.; 0.1; 0.3; 1.1e6; 0.5 *. (1.3 ** 63.); 3.3e7; 1e9 /. 3.; 0.7e9 |] in
      let scale = scales.(Rng.int rng (Array.length scales)) in
      let m = Array.make_matrix n n 0. in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let x =
            if Rng.int rng 8 = 0 then infinity else scale *. float_of_int (1 + Rng.int rng 4)
          in
          m.(i).(j) <- x;
          m.(j).(i) <- x
        done
      done;
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let k = 1 + Rng.int rng (min 6 (n - 1)) in
      let members = Array.sub perm 0 k in
      let candidates = Array.to_list (Array.sub perm k (n - k)) in
      let rows = Array.map (fun v -> m.(v)) members in
      let got = C.Igmst.rank_candidates ~members ~rows ~candidates in
      let mst ids =
        snd (G.Mst.prim_dense ~n:(Array.length ids) ~weight:(fun i j -> m.(ids.(i)).(ids.(j))))
      in
      let base = mst members in
      let want =
        List.stable_sort
          (fun (_, a) (_, b) -> Float.compare a b)
          (List.filter_map
             (fun t ->
               let c = mst (Array.append members [| t |]) in
               if c < base -. 1e-7 then Some (t, c) else None)
             candidates)
      in
      let same (t1, c1) (t2, c2) =
        Int.equal t1 t2 && Int64.equal (Int64.bits_of_float c1) (Int64.bits_of_float c2)
      in
      if not (List.equal same got want) then
        QCheck.Test.fail_reportf "seed %d: scan ranked %d candidates, reference %d" seed
          (List.length got) (List.length want);
      true)

(* ------------------------------------------------------------------ *)
(* Exact                                                              *)
(* ------------------------------------------------------------------ *)

let test_exact_star_triangle () =
  let g, terminals, _ = star_triangle () in
  let t = C.Exact.steiner g ~terminals in
  Alcotest.(check (float 1e-9)) "optimum is the star" 3. (G.Tree.cost g t);
  Alcotest.(check bool) "valid" true (G.Tree.is_tree g t && G.Tree.spans g t terminals)

let test_exact_two_pins () =
  let g, _, _ = star_triangle () in
  let t = C.Exact.steiner g ~terminals:[ 0; 1 ] in
  Alcotest.(check (float 1e-9)) "shortest path" 1.9 (G.Tree.cost g t)

let test_exact_guard () =
  let g = G.Wgraph.create 20 in
  for i = 0 to 18 do
    ignore (G.Wgraph.add_edge g i (i + 1) 1.)
  done;
  let g = G.Gstate.of_builder g in
  Alcotest.check_raises "too many terminals"
    (Invalid_argument "Exact.steiner: too many terminals") (fun () ->
      ignore (C.Exact.steiner g ~terminals:(List.init 13 (fun i -> i))))

let prop_exact_lower_bounds_heuristics =
  QCheck.Test.make ~name:"Exact <= KMB <= 2*Exact and Exact <= ZEL" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:18 ~m:40 ~k:4 in
      let cache = cache_of g in
      let terminals = C.Net.terminals net in
      let opt = C.Exact.steiner_cost g ~terminals in
      let k = C.Kmb.cost cache ~terminals in
      let z = zel_cost cache ~terminals in
      opt <= k +. 1e-6 && k <= (2. *. opt) +. 1e-6 && opt <= z +. 1e-6)

let prop_exact_spans_and_is_tree =
  QCheck.Test.make ~name:"Exact returns spanning trees" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:15 ~m:35 ~k:5 in
      let terminals = C.Net.terminals net in
      let t = C.Exact.steiner g ~terminals in
      G.Tree.is_tree g t && G.Tree.spans g t terminals)

(* ------------------------------------------------------------------ *)
(* Dominance                                                          *)
(* ------------------------------------------------------------------ *)

let test_dominance_basics () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let source = net.C.Net.source in
  (* [nearest_dominated] picks among the members B dominates, so a
     single member is picked exactly when B dominates it. *)
  let dominates s =
    C.Dominance.nearest_dominated cache ~source ~members:[ s ] ~p:1 |> Option.is_some
  in
  Alcotest.(check bool) "B dominates m" true (dominates m);
  Alcotest.(check bool) "B dominates source" true (dominates source);
  Alcotest.(check bool) "B does not dominate C" false (dominates 2)

let test_max_dom () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let source = net.C.Net.source in
  ignore g;
  match C.Dominance.max_dom cache ~source ~p:1 ~q:2 with
  | Some (node, d) ->
      Alcotest.(check int) "maxdom is the hub" m node;
      Alcotest.(check (float 1e-9)) "at distance 1" 1. d
  | None -> Alcotest.fail "max_dom returned None"

let test_nearest_dominated () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let source = net.C.Net.source in
  ignore g;
  (match C.Dominance.nearest_dominated cache ~source ~members:[ source; 1; 2; m ] ~p:1 with
  | Some (s, d) ->
      Alcotest.(check int) "parent is hub" m s;
      Alcotest.(check (float 1e-9)) "dist 1" 1. d
  | None -> Alcotest.fail "no parent");
  Alcotest.(check bool) "source has no parent" true
    (C.Dominance.nearest_dominated cache ~source ~members:[ source; 1 ] ~p:source = None)

(* ------------------------------------------------------------------ *)
(* Arborescence algorithms                                            *)
(* ------------------------------------------------------------------ *)

let test_djka_valid () =
  let g, net, _ = shared_hub () in
  let cache = cache_of g in
  let t = C.Djka.solve cache ~net in
  Alcotest.(check bool) "arborescence" true (C.Eval.is_arborescence cache ~net ~tree:t);
  Alcotest.(check bool) "valid" true (C.Eval.check cache ~net ~tree:t = Ok ())

let test_dom_pays_without_folding () =
  let g, net, _ = shared_hub () in
  let cache = cache_of g in
  let t = C.Dom.solve cache ~net in
  Alcotest.(check bool) "arborescence" true (C.Eval.is_arborescence cache ~net ~tree:t);
  Alcotest.(check (float 1e-9)) "embedded cost 4" 4. (G.Tree.cost g t)

let test_pfa_folds_shared_hub () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let t = C.Pfa.solve cache ~net in
  Alcotest.(check bool) "merge point is hub" true (List.mem m (G.Tree.nodes g t));
  Alcotest.(check (float 1e-9)) "folded cost 3" 3. (G.Tree.cost g t);
  Alcotest.(check bool) "arborescence" true (C.Eval.is_arborescence cache ~net ~tree:t)

let test_idom_folds_shared_hub () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let s = C.Idom.steiner_nodes cache ~net in
  Alcotest.(check (list int)) "steiner = hub" [ m ] s;
  let t = C.Idom.solve cache ~net in
  Alcotest.(check (float 1e-9)) "folded cost 3" 3. (G.Tree.cost g t);
  let trace = C.Idom.distance_graph_cost_trace cache ~net in
  Alcotest.(check (list (float 1e-9))) "trace 4 -> 3" [ 4.; 3. ] trace

let test_idom_candidate_restriction () =
  let g, net, m = shared_hub () in
  let cache = cache_of g in
  let t = C.Idom.solve ~candidates:[] cache ~net in
  Alcotest.(check (float 1e-9)) "no candidates -> DOM" 4. (G.Tree.cost g t);
  let t' = C.Idom.solve ~candidates:[ m ] cache ~net in
  Alcotest.(check (float 1e-9)) "hub suffices" 3. (G.Tree.cost g t')

let arborescence_algs =
  List.filter (fun a -> a.C.Routing_alg.kind = C.Routing_alg.Arborescence) C.Routing_alg.all

let test_arborescence_single_sink () =
  let g, _, _ = shared_hub () in
  let cache = cache_of g in
  let net = C.Net.make ~source:0 ~sinks:[ 1 ] in
  List.iter
    (fun alg ->
      let t = alg.C.Routing_alg.solve cache ~net in
      Alcotest.(check (float 1e-9)) (alg.C.Routing_alg.name ^ " 2-pin = shortest path") 2.
        (G.Tree.cost g t))
    arborescence_algs

let test_unroutable_arborescence () =
  let g = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  let g = G.Gstate.of_builder g in
  let cache = cache_of g in
  let net = C.Net.make ~source:0 ~sinks:[ 2 ] in
  List.iter
    (fun alg ->
      match alg.C.Routing_alg.solve cache ~net with
      | exception C.Routing_err.Unroutable _ -> ()
      | _ -> Alcotest.fail (alg.C.Routing_alg.name ^ " should fail"))
    arborescence_algs

(* Every algorithm yields a valid spanning tree; arborescence algorithms
   additionally preserve every sink's graph distance (the GSA property). *)
let prop_all_algorithms_valid =
  QCheck.Test.make ~name:"all 8 algorithms: valid trees; GSA property holds" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let cache = cache_of g in
      List.for_all
        (fun alg ->
          let t = alg.C.Routing_alg.solve cache ~net in
          let valid = C.Eval.check cache ~net ~tree:t = Ok () in
          let arb_ok =
            match alg.C.Routing_alg.kind with
            | C.Routing_alg.Steiner -> true
            | C.Routing_alg.Arborescence -> C.Eval.is_arborescence cache ~net ~tree:t
          in
          valid && arb_ok)
        C.Routing_alg.all)

(* The quick scan's member searches, as IGMST opens them: one per member,
   settled only as far as the members' MST needs, reading the weight
   between members i < j from i's search ([Mst.prim_searches]).  Returns
   the searches and the MST's longest edge L. *)
let member_searches cache members =
  let searches = Array.map (fun m -> G.Dist_cache.result_for cache ~src:m ~targets:[]) members in
  let _, _, longest =
    G.Mst.prim_searches ~nodes:members ~search:(fun i j -> searches.(Int.min i j))
  in
  (searches, longest)

(* The rows the scan reads: the member searches, each then settled below
   L. *)
let bounded_member_rows cache members =
  let searches, longest = member_searches cache members in
  Array.iter (fun m -> G.Dist_cache.settle_below cache ~src:m longest) members;
  Array.map (fun r -> r.G.Dijkstra.dist) searches

let same_ranking got want =
  let same (t1, c1) (t2, c2) =
    Int.equal t1 t2 && Int64.equal (Int64.bits_of_float c1) (Int64.bits_of_float c2)
  in
  List.equal same got want

(* Rows exact only up to L must rank exactly as complete rows do, bit for
   bit; the members' MST settles the rows only as far as its picks need,
   so the weights between members are exact only up to L as well.
   Weights from {0.1, 0.2, 0.3, 0.7} make a distance summed from
   either end round differently; unit grids make ties everywhere.  Half
   the instances search inside a region, as the router's bounding boxes
   do. *)
let prop_bounded_rows_rank_like_complete_rows =
  QCheck.Test.make ~name:"candidate scan over rows settled below L = over complete rows"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let g =
        if seed mod 2 = 0 then begin
          let n = 12 + Rng.int rng 25 in
          let b = G.Wgraph.create n in
          let weight () = [| 0.1; 0.2; 0.3; 0.7 |].(Rng.int rng 4) in
          for v = 1 to n - 1 do
            ignore (G.Wgraph.add_edge b (Rng.int rng v) v (weight ()))
          done;
          for _ = 1 to n do
            let u = Rng.int rng n and v = Rng.int rng n in
            if u <> v then ignore (G.Wgraph.add_edge b u v (weight ()))
          done;
          G.Gstate.of_builder b
        end
        else (G.Grid.create ~width:(4 + Rng.int rng 4) ~height:(4 + Rng.int rng 4)).G.Grid.graph
      in
      let n = G.Gstate.num_nodes g in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let k = 3 + Rng.int rng 6 in
      let members = Array.sub perm 0 k in
      let restrict =
        if Random.State.bool rng then None
        else begin
          let keep = Fr_util.Bitset.create n in
          Array.iteri (fun i v -> if i >= k && Rng.int rng 4 = 0 then Fr_util.Bitset.set keep v false) perm;
          Some keep
        end
      in
      let candidates =
        List.filter
          (fun v -> match restrict with None -> true | Some b -> Fr_util.Bitset.get b v)
          (Array.to_list (Array.sub perm k (n - k)))
      in
      let rows = bounded_member_rows (G.Dist_cache.create ?restrict g) members in
      let complete = Array.map (fun m -> (G.Dijkstra.run ?restrict g ~src:m).G.Dijkstra.dist) members in
      let got = C.Igmst.rank_candidates ~members ~rows ~candidates in
      let want = C.Igmst.rank_candidates ~members ~rows:complete ~candidates in
      if not (same_ranking got want) then
        QCheck.Test.fail_reportf "seed %d: bounded rows ranked %d candidates, complete rows %d"
          seed (List.length got) (List.length want);
      true)

(* The members' MST does not settle the rows to L on its own: it settles
   each search only as far as its picks need.  Members a, b, c:
   a-n2-n1-b weigh 0.1, 0.2, 0.3, so a's search reaches b at
   0.1+0.2+0.3 = 0.6000000000000001 but b's reaches a at 0.3+0.2+0.1 =
   0.6, and L is the former (c hangs off b at 0.1; the weight between a
   and b is read from a's row).  b's search, read only for c, stops at c,
   leaving y, at 0.6 through n2, unsettled below L: the settle must take
   it. *)
let test_member_row_stops_below_longest_edge () =
  let a = 0 and n2 = 1 and n1 = 2 and b = 3 and c = 4 and y = 5 in
  let g = G.Wgraph.create 6 in
  List.iter
    (fun (u, v, w) -> ignore (G.Wgraph.add_edge g u v w))
    [ (a, n2, 0.1); (n2, n1, 0.2); (n1, b, 0.3); (b, c, 0.1); (n2, y, 0.1) ];
  let g = G.Gstate.of_builder g in
  let cache = G.Dist_cache.create g in
  let members = [| a; b; c |] in
  let searches, longest = member_searches cache members in
  Alcotest.(check (float 0.)) "L is a's distance to b" 0.6000000000000001 longest;
  Alcotest.(check bool) "y unsettled in b's row after the MST" false
    (G.Dijkstra.is_settled searches.(1) y);
  Array.iter (fun m -> G.Dist_cache.settle_below cache ~src:m longest) members;
  let rows = Array.map (fun r -> r.G.Dijkstra.dist) searches in
  Alcotest.(check bool) "b reaches a below a's distance to b" true (rows.(1).(a) < rows.(0).(b));
  Alcotest.(check bool) "the settle below L settled y" true (G.Dijkstra.is_settled searches.(1) y);
  Alcotest.(check (float 0.)) "y exact in b's row" 0.6 rows.(1).(y)

(* Target-bounded lookups change only the work, never a tree: every
   construction, with and without a candidate bound, must build the
   full-settle cache's trees from a targeted cache.  Odd seeds use a
   unit-weight grid, where equal-distance paths are everywhere: that is
   where canonical equal-distance parents earn their keep. *)
let prop_targeted_cache_identical_trees =
  QCheck.Test.make ~name:"all 8 algorithms: targeted cache = full cache" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net =
        if seed mod 2 = 0 then random_instance seed ~n:25 ~m:60 ~k:5
        else begin
          let g = (G.Grid.create ~width:6 ~height:6).G.Grid.graph in
          (g, C.Net.of_terminals (G.Random_graph.random_net (Rng.make seed) g ~k:5))
        end
      in
      let candidates =
        List.filteri (fun i _ -> i mod 2 = 0) (List.init (G.Gstate.num_nodes g) Fun.id)
      in
      let edges t = List.sort compare t.G.Tree.edges in
      List.for_all
        (fun alg ->
          let solve cache ?candidates () = alg.C.Routing_alg.solve ?candidates cache ~net in
          let t_full = edges (solve (G.Dist_cache.create ~targeted:false g) ()) in
          let c_full = edges (solve (G.Dist_cache.create ~targeted:false g) ~candidates ()) in
          t_full = edges (solve (G.Dist_cache.create g) ())
          && c_full = edges (solve (G.Dist_cache.create g) ~candidates ()))
        C.Routing_alg.all)

let prop_idom_trace_decreasing =
  QCheck.Test.make ~name:"IDOM distance-graph cost strictly decreases" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let cache = cache_of g in
      let trace = C.Idom.distance_graph_cost_trace cache ~net in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> b < a +. 1e-9 && decreasing rest
        | _ -> true
      in
      decreasing trace)

let prop_steiner_cheaper_or_equal_arborescence_on_avg =
  (* Not a pointwise theorem, but the sum over a batch must respect the
     wirelength-vs-pathlength tradeoff direction: DJKA uses at least as
     much wire as IKMB overall. *)
  QCheck.Test.make ~name:"sum cost(DJKA) >= sum cost(IKMB) over a batch" ~count:1
    QCheck.(int_range 1 1)
    (fun _ ->
      let total_djka = ref 0. and total_ikmb = ref 0. in
      for seed = 0 to 19 do
        let g, net = random_instance seed ~n:30 ~m:70 ~k:5 in
        let cache = cache_of g in
        let terminals = C.Net.terminals net in
        total_djka := !total_djka +. G.Tree.cost g (C.Djka.solve cache ~net);
        total_ikmb := !total_ikmb +. G.Tree.cost g (C.Igmst.ikmb cache ~terminals)
      done;
      !total_djka >= !total_ikmb)

(* ------------------------------------------------------------------ *)
(* Robustness / edge cases                                            *)
(* ------------------------------------------------------------------ *)

let prop_kmb_order_independent =
  QCheck.Test.make ~name:"KMB cost independent of terminal order" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, net = random_instance seed ~n:25 ~m:60 ~k:5 in
      let cache = cache_of g in
      let terminals = C.Net.terminals net in
      let rng = Rng.make (seed + 1) in
      let shuffled = Array.of_list terminals in
      Rng.shuffle rng shuffled;
      let c1 = C.Kmb.cost cache ~terminals in
      let c2 = C.Kmb.cost cache ~terminals:(Array.to_list shuffled) in
      Float.abs (c1 -. c2) < 1e-9)

let test_parallel_edges_use_cheaper () =
  let g = G.Wgraph.create 2 in
  ignore (G.Wgraph.add_edge g 0 1 5.);
  let cheap = G.Wgraph.add_edge g 0 1 1. in
  let g = G.Gstate.of_builder g in
  let cache = cache_of g in
  let t = C.Kmb.solve cache ~terminals:[ 0; 1 ] in
  Alcotest.(check (float 1e-9)) "cheaper parallel edge" 1. (G.Tree.cost g t);
  Alcotest.(check bool) "uses the cheap edge" true (t.G.Tree.edges = [ cheap ])

let test_net_all_sinks_equal_source () =
  let n = C.Net.make ~source:3 ~sinks:[ 3; 3 ] in
  Alcotest.(check (list int)) "degenerate net" [] n.C.Net.sinks;
  let g, _, _ = star_triangle () in
  let cache = cache_of g in
  (* A net with no sinks routes as the empty tree. *)
  let t = C.Djka.solve cache ~net:(C.Net.make ~source:0 ~sinks:[]) in
  Alcotest.(check int) "empty" 0 (List.length t.G.Tree.edges)

let test_exact_same_component_of_disconnected_graph () =
  let g = G.Wgraph.create 5 in
  ignore (G.Wgraph.add_edge g 0 1 1.);
  ignore (G.Wgraph.add_edge g 1 2 1.);
  ignore (G.Wgraph.add_edge g 3 4 1.);
  let g = G.Gstate.of_builder g in
  let t = C.Exact.steiner g ~terminals:[ 0; 2 ] in
  Alcotest.(check (float 1e-9)) "routes within the component" 2. (G.Tree.cost g t)

let test_algorithms_respect_disabled_nodes () =
  (* Disabling the hub forces every algorithm onto direct edges. *)
  let g, net, m = shared_hub () in
  G.Gstate.disable_node g m;
  let cache = cache_of g in
  List.iter
    (fun (alg : C.Routing_alg.t) ->
      let tree = alg.C.Routing_alg.solve cache ~net in
      Alcotest.(check (float 1e-9)) (alg.C.Routing_alg.name ^ " avoids hub") 4.
        (G.Tree.cost g tree))
    C.Routing_alg.all

(* ------------------------------------------------------------------ *)
(* Eval                                                               *)
(* ------------------------------------------------------------------ *)

let test_eval_metrics () =
  let g, net, _ = shared_hub () in
  let cache = cache_of g in
  let t = C.Pfa.solve cache ~net in
  let m = C.Eval.metrics cache ~net ~tree:t in
  Alcotest.(check (float 1e-9)) "cost" 3. m.C.Eval.cost;
  Alcotest.(check (float 1e-9)) "max path" 2. m.C.Eval.max_path;
  Alcotest.(check (float 1e-9)) "opt max path" 2. m.C.Eval.opt_max_path;
  Alcotest.(check bool) "arborescence" true m.C.Eval.arborescence

let test_eval_detects_non_spanning () =
  let g, net, _ = shared_hub () in
  let cache = cache_of g in
  Alcotest.(check bool) "empty tree does not span" true
    (C.Eval.check cache ~net ~tree:G.Tree.empty <> Ok ())

let test_eval_detects_disabled_use () =
  let g, net, _ = shared_hub () in
  let cache = cache_of g in
  let t = C.Pfa.solve cache ~net in
  List.iter (G.Gstate.disable_node g) (G.Tree.nodes g t);
  Alcotest.(check bool) "disabled nodes rejected" true
    (C.Eval.check cache ~net ~tree:t = Error "tree uses disabled resources")

(* ------------------------------------------------------------------ *)
(* Routing_alg registry                                               *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check int) "eight algorithms" 8 (List.length C.Routing_alg.all);
  Alcotest.(check (list string)) "paper order"
    [ "KMB"; "ZEL"; "IKMB"; "IZEL"; "DJKA"; "DOM"; "PFA"; "IDOM" ]
    (List.map (fun a -> a.C.Routing_alg.name) C.Routing_alg.all);
  Alcotest.(check bool) "lookup case-insensitive" true
    (match C.Routing_alg.by_name "ikmb" with Some a -> a.C.Routing_alg.name = "IKMB" | None -> false);
  Alcotest.(check bool) "unknown" true (C.Routing_alg.by_name "nope" = None);
  Alcotest.(check int) "4 arborescence" 4 (List.length arborescence_algs)

let () =
  Alcotest.run "fr_core"
    [
      ( "net",
        [
          Alcotest.test_case "make" `Quick test_net_make;
          Alcotest.test_case "rejects" `Quick test_net_rejects;
        ] );
      ( "kmb",
        [
          Alcotest.test_case "2-pin shortest path" `Quick test_kmb_two_pins_is_shortest_path;
          Alcotest.test_case "star-triangle suboptimal" `Quick test_kmb_star_triangle;
          Alcotest.test_case "single terminal" `Quick test_kmb_single_terminal;
          Alcotest.test_case "unroutable" `Quick test_kmb_unroutable;
        ] );
      ( "zel",
        [
          Alcotest.test_case "star-triangle optimal" `Quick test_zel_star_triangle;
          Alcotest.test_case "memo reuse" `Quick test_zel_memo_reuse;
          Alcotest.test_case "small nets = KMB" `Quick test_zel_small_nets_fall_back_to_kmb;
        ] );
      ( "igmst",
        [
          Alcotest.test_case "IKMB improves (Fig 6)" `Quick test_ikmb_improves_star_triangle;
          Alcotest.test_case "IZEL optimal" `Quick test_izel_star_triangle;
          Alcotest.test_case "candidate restriction" `Quick test_igmst_candidate_restriction;
          QCheck_alcotest.to_alcotest prop_ikmb_never_worse_than_kmb;
          QCheck_alcotest.to_alcotest prop_izel_never_worse_than_zel;
          QCheck_alcotest.to_alcotest prop_rank_candidates_matches_prim;
          QCheck_alcotest.to_alcotest prop_bounded_rows_rank_like_complete_rows;
          Alcotest.test_case "member row stops below L" `Quick
            test_member_row_stops_below_longest_edge;
        ] );
      ( "exact",
        [
          Alcotest.test_case "star-triangle" `Quick test_exact_star_triangle;
          Alcotest.test_case "2-pin" `Quick test_exact_two_pins;
          Alcotest.test_case "terminal guard" `Quick test_exact_guard;
          QCheck_alcotest.to_alcotest prop_exact_lower_bounds_heuristics;
          QCheck_alcotest.to_alcotest prop_exact_spans_and_is_tree;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "dominates" `Quick test_dominance_basics;
          Alcotest.test_case "max_dom" `Quick test_max_dom;
          Alcotest.test_case "nearest_dominated" `Quick test_nearest_dominated;
        ] );
      ( "arborescence",
        [
          Alcotest.test_case "DJKA valid" `Quick test_djka_valid;
          Alcotest.test_case "DOM no folding" `Quick test_dom_pays_without_folding;
          Alcotest.test_case "PFA folds (Fig 9)" `Quick test_pfa_folds_shared_hub;
          Alcotest.test_case "IDOM folds (Fig 13)" `Quick test_idom_folds_shared_hub;
          Alcotest.test_case "IDOM candidate restriction" `Quick test_idom_candidate_restriction;
          Alcotest.test_case "2-pin nets" `Quick test_arborescence_single_sink;
          Alcotest.test_case "unroutable" `Quick test_unroutable_arborescence;
          QCheck_alcotest.to_alcotest prop_all_algorithms_valid;
          QCheck_alcotest.to_alcotest prop_targeted_cache_identical_trees;
          QCheck_alcotest.to_alcotest prop_idom_trace_decreasing;
          QCheck_alcotest.to_alcotest prop_steiner_cheaper_or_equal_arborescence_on_avg;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest prop_kmb_order_independent;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges_use_cheaper;
          Alcotest.test_case "degenerate nets" `Quick test_net_all_sinks_equal_source;
          Alcotest.test_case "exact within component" `Quick
            test_exact_same_component_of_disconnected_graph;
          Alcotest.test_case "disabled nodes respected" `Quick
            test_algorithms_respect_disabled_nodes;
        ] );
      ( "eval",
        [
          Alcotest.test_case "metrics" `Quick test_eval_metrics;
          Alcotest.test_case "non-spanning" `Quick test_eval_detects_non_spanning;
          Alcotest.test_case "disabled resources" `Quick test_eval_detects_disabled_use;
        ] );
      ("registry", [ Alcotest.test_case "all/by_name" `Quick test_registry ]);
    ]
