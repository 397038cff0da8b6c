(* Unit, integration, and property tests for the fr_graph substrate. *)

module G = Fr_graph
module Rng = Fr_util.Rng

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

(* A small diamond: 0-1 (1.), 0-2 (2.), 1-3 (2.), 2-3 (1.), 1-2 (0.5) *)
let diamond () =
  let b = G.Wgraph.create 4 in
  let e01 = G.Wgraph.add_edge b 0 1 1. in
  let e02 = G.Wgraph.add_edge b 0 2 2. in
  let e13 = G.Wgraph.add_edge b 1 3 2. in
  let e23 = G.Wgraph.add_edge b 2 3 1. in
  let e12 = G.Wgraph.add_edge b 1 2 0.5 in
  (G.Gstate.of_builder b, e01, e02, e13, e23, e12)

(* Build-and-freeze in one go: [graph n [(u, v, w); ...]]. *)
let graph n edges =
  let b = G.Wgraph.create n in
  List.iter (fun (u, v, w) -> ignore (G.Wgraph.add_edge b u v w)) edges;
  G.Gstate.of_builder b

(* Floyd–Warshall reference for cross-checking Dijkstra. *)
let floyd_warshall g =
  let n = G.Gstate.num_nodes g in
  let d = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.
  done;
  G.Gstate.iter_edges g (fun _ u v w ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let drain_heap h =
  let rec go acc = if G.Heap.is_empty h then List.rev acc else go (G.Heap.pop h :: acc) in
  go []

let test_heap_order () =
  let h = G.Heap.create () in
  List.iter (fun (p, x) -> G.Heap.push h p 0. x) [ (3., 3); (1., 1); (2., 2); (0.5, 0) ];
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3 ] (drain_heap h)

(* Strict (prio, tie, seq) pop order — the contract Dijkstra's (f, g)
   frontier keys and its FIFO full-tie behaviour rest on. *)
let test_heap_two_key_order () =
  let h = G.Heap.create () in
  G.Heap.push h 2. 1. 10;
  G.Heap.push h 2. 0.5 11;
  G.Heap.push h 0.25 0. 12;
  G.Heap.push h 2. 0.5 13;
  (* 12 first (smallest prio); then prio-2 entries by tie, then seq. *)
  Alcotest.(check (list int)) "order" [ 12; 11; 13; 10 ] (drain_heap h)

let test_heap_empty () =
  let h = G.Heap.create () in
  Alcotest.(check bool) "empty" true (G.Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (G.Heap.pop h));
  G.Heap.push h 1. 0. 1;
  Alcotest.(check bool) "non-empty" false (G.Heap.is_empty h);
  Alcotest.(check int) "pop" 1 (G.Heap.pop h);
  Alcotest.(check bool) "drained" true (G.Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun ps ->
      let h = G.Heap.create () in
      List.iteri (fun i p -> G.Heap.push h p 0. i) ps;
      let prio = Array.of_list ps in
      List.map (fun i -> prio.(i)) (drain_heap h) = List.sort compare ps)

(* Interleaved pushes and pops tracked against a sorted model of
   (prio, tie, seq) keys: every pop must return exactly the model's
   minimum, in any operation order.  Half the priorities are quantized and
   ties take three values, so full (prio, tie) collisions — resolved by
   push order — actually occur. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved push/pop matches model" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 20 300))
    (fun (seed, steps) ->
      let rng = Rng.make seed in
      let h = G.Heap.create ~capacity:2 () in
      let key_order (p1, t1, s1) (p2, t2, s2) =
        match Float.compare p1 p2 with
        | 0 -> ( match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
        | c -> c
      in
      let model = ref [] in
      for i = 0 to steps - 1 do
        if Rng.int rng 3 < 2 || !model = [] then begin
          let p = Rng.float rng 10. in
          let prio = if Random.State.bool rng then Float.round p else p in
          let tie = float_of_int (Rng.int rng 3) in
          G.Heap.push h prio tie i;
          model := List.sort key_order ((prio, tie, i) :: !model)
        end
        else
          match !model with
          | (_, _, x) :: rest ->
              let got = G.Heap.pop h in
              if got <> x then QCheck.Test.fail_reportf "step %d popped %d, model %d" i got x;
              model := rest
          | [] -> ()
      done;
      drain_heap h = List.map (fun (_, _, x) -> x) !model)

let test_heap_growth () =
  (* Push far past the initial capacity; order and payloads must survive
     every reallocation. *)
  let h = G.Heap.create ~capacity:2 () in
  for i = 99 downto 0 do
    G.Heap.push h (float_of_int i) 0. i
  done;
  Alcotest.(check (list int)) "order after growth" (List.init 100 Fun.id) (drain_heap h)

(* ------------------------------------------------------------------ *)
(* Dsu                                                                *)
(* ------------------------------------------------------------------ *)

let test_dsu () =
  let d = G.Dsu.create 5 in
  Alcotest.(check int) "initial classes" 5 (G.Dsu.count d);
  Alcotest.(check bool) "union 0 1" true (G.Dsu.union d 0 1);
  Alcotest.(check bool) "union again" false (G.Dsu.union d 0 1);
  Alcotest.(check int) "one class merged" 4 (G.Dsu.count d);
  ignore (G.Dsu.union d 2 3);
  ignore (G.Dsu.union d 1 3);
  Alcotest.(check bool) "transitively same" false (G.Dsu.union d 0 2);
  Alcotest.(check int) "classes" 2 (G.Dsu.count d)

(* ------------------------------------------------------------------ *)
(* Wgraph                                                             *)
(* ------------------------------------------------------------------ *)

let degree g u = G.Gstate.fold_adj g u (fun d _ _ _ -> d + 1) 0

(* The builder's edge store starts at its [edge_capacity] and doubles past
   it; every edge must come through [freeze] with its id, endpoints and
   weight intact. *)
let test_wgraph_edge_store_grows () =
  let n = 100 in
  let b = G.Wgraph.create ~edge_capacity:2 n in
  for i = 0 to n - 2 do
    Alcotest.(check int) "dense ids" i (G.Wgraph.add_edge b i (i + 1) (float_of_int i))
  done;
  let g = G.Gstate.of_builder b in
  Alcotest.(check int) "edges" (n - 1) (G.Gstate.num_edges g);
  for e = 0 to n - 2 do
    Alcotest.(check bool) "endpoints" true (G.Gstate.endpoints g e = (e, e + 1));
    Alcotest.(check (float 0.)) "weight" (float_of_int e) (G.Gstate.weight g e)
  done

let test_wgraph_basic () =
  let g, e01, _, _, _, _ = diamond () in
  Alcotest.(check int) "nodes" 4 (G.Gstate.num_nodes g);
  Alcotest.(check int) "edges" 5 (G.Gstate.num_edges g);
  Alcotest.(check (float 1e-9)) "weight" 1. (G.Gstate.weight g e01);
  Alcotest.(check bool) "endpoints" true (G.Gstate.endpoints g e01 = (0, 1));
  Alcotest.(check int) "other_end" 1 (G.Gstate.other_end g e01 0);
  Alcotest.(check int) "degree 1" 3 (degree g 1)

let test_wgraph_rejects () =
  let g = G.Wgraph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.add_edge: self-loop") (fun () ->
      ignore (G.Wgraph.add_edge g 1 1 1.));
  Alcotest.check_raises "out of range" (Invalid_argument "Wgraph.add_edge: node out of range")
    (fun () -> ignore (G.Wgraph.add_edge g 0 7 1.));
  Alcotest.check_raises "negative weight" (Invalid_argument "Wgraph.add_edge: negative weight")
    (fun () -> ignore (G.Wgraph.add_edge g 0 1 (-1.)))

let test_wgraph_disable () =
  let g, _, e02, _, _, _ = diamond () in
  let cp = G.Gstate.checkpoint g in
  G.Gstate.disable_node g 2;
  Alcotest.(check int) "degree drops" 1 (G.Gstate.fold_adj g 0 (fun d _ _ _ -> d + 1) 0);
  Alcotest.(check bool) "edge to disabled node hidden" true
    (G.Gstate.fold_adj g 0 (fun acc e _ _ -> acc && e <> e02) true);
  G.Gstate.rollback g cp;
  Alcotest.(check int) "node restored" 2 (degree g 0)

let test_wgraph_version_and_weights () =
  let g, e01, _, _, _, _ = diamond () in
  let v0 = G.Gstate.version g in
  G.Gstate.add_weight g e01 0.5;
  Alcotest.(check (float 1e-9)) "incremented" 1.5 (G.Gstate.weight g e01);
  Alcotest.(check bool) "version bumped" true (G.Gstate.version g > v0)

let test_mean_edge_weight () =
  let b = G.Wgraph.create 3 in
  ignore (G.Wgraph.add_edge b 0 1 1.);
  ignore (G.Wgraph.add_edge b 1 2 3.);
  let g = G.Gstate.of_builder b in
  Alcotest.(check (float 1e-9)) "mean" 2. (G.Gstate.mean_edge_weight g);
  G.Gstate.disable_node g 2;
  Alcotest.(check (float 1e-9)) "mean after disable" 1. (G.Gstate.mean_edge_weight g)

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                           *)
(* ------------------------------------------------------------------ *)

let test_dijkstra_diamond () =
  let g, _, _, _, _, _ = diamond () in
  let r = G.Dijkstra.run g ~src:0 in
  Alcotest.(check (float 1e-9)) "d0" 0. (G.Dijkstra.dist r 0);
  Alcotest.(check (float 1e-9)) "d1" 1. (G.Dijkstra.dist r 1);
  Alcotest.(check (float 1e-9)) "d2" 1.5 (G.Dijkstra.dist r 2);
  Alcotest.(check (float 1e-9)) "d3" 2.5 (G.Dijkstra.dist r 3);
  let path = G.Dijkstra.path_nodes r 3 in
  Alcotest.(check (list int)) "path via 1,2" [ 0; 1; 2; 3 ] path

let test_dijkstra_disabled_detour () =
  let g, _, _, _, _, _ = diamond () in
  (* The shortest route 0-1-2-3 (2.5) runs through node 2. *)
  G.Gstate.disable_node g 2;
  let r = G.Dijkstra.run g ~src:0 in
  Alcotest.(check (float 1e-9)) "d3 detours" 3. (G.Dijkstra.dist r 3)

let test_dijkstra_unreachable () =
  let g = graph 3 [ (0, 1, 1.) ] in
  let r = G.Dijkstra.run g ~src:0 in
  Alcotest.(check bool) "unreachable" false (G.Dijkstra.reachable r 2);
  Alcotest.check_raises "path to unreachable"
    (Invalid_argument "Dijkstra.path_edges: unreachable node") (fun () ->
      ignore (G.Dijkstra.path_edges r 2))

let test_dijkstra_restrict () =
  let g, _, _, _, _, _ = diamond () in
  (* Forbid node 1: route to 3 must go 0-2-3. *)
  let keep = Fr_util.Bitset.create 4 in
  Fr_util.Bitset.set keep 1 false;
  let r = G.Dijkstra.run ~restrict:keep g ~src:0 in
  Alcotest.(check (float 1e-9)) "restricted d3" 3. (G.Dijkstra.dist r 3);
  Alcotest.(check (list int)) "restricted path" [ 0; 2; 3 ] (G.Dijkstra.path_nodes r 3);
  Alcotest.check_raises "one bit per node"
    (Invalid_argument "Dijkstra.run: restriction size mismatch") (fun () ->
      ignore (G.Dijkstra.run ~restrict:(Fr_util.Bitset.create 3) g ~src:0))

let test_dijkstra_edge_ok () =
  let g, e01, _, _, _, _ = diamond () in
  let r = G.Dijkstra.run ~edge_ok:(fun e -> e <> e01) g ~src:0 in
  Alcotest.(check (float 1e-9)) "without 0-1 edge" 2. (G.Dijkstra.dist r 2)

let test_dijkstra_spt_edges () =
  let g, _, _, _, _, _ = diamond () in
  let r = G.Dijkstra.run g ~src:0 in
  Alcotest.(check int) "spt has n-1 edges" 3 (List.length (G.Dijkstra.spt_edges r))

let prop_dijkstra_matches_floyd_warshall =
  QCheck.Test.make ~name:"Dijkstra = Floyd-Warshall on random graphs" ~count:50
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n ~m:(2 * n) ~wmin:0.5 ~wmax:4. in
      let fw = floyd_warshall g in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = G.Dijkstra.run g ~src:s in
        for v = 0 to n - 1 do
          if Float.abs (G.Dijkstra.dist r v -. fw.(s).(v)) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_dijkstra_path_cost_consistent =
  QCheck.Test.make ~name:"path edge weights sum to dist" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n:30 ~m:80 ~wmin:0.1 ~wmax:5. in
      let r = G.Dijkstra.run g ~src:0 in
      let ok = ref true in
      for v = 0 to 29 do
        let edges = G.Dijkstra.path_edges r v in
        let total = List.fold_left (fun acc e -> acc +. G.Gstate.weight g e) 0. edges in
        if Float.abs (total -. G.Dijkstra.dist r v) > 1e-6 then ok := false
      done;
      !ok)

(* Goal-direction with an admissible + consistent heuristic must change
   only the amount of work, never the answer.  The landmark heuristic
   [h(v) = scale * dist(v, t)] with scale in [0, 1] is exact-to-scaled and
   therefore both admissible and consistent; canonical parent selection
   makes even the shortest-path tree bit-identical to the plain run. *)
let prop_astar_matches_plain =
  QCheck.Test.make ~name:"goal-directed = plain (dist, parents, settled work)" ~count:60
    QCheck.(pair (int_range 3 30) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n ~m:(3 * n) ~wmin:0.2 ~wmax:5. in
      let t = n - 1 in
      let back = G.Dijkstra.run g ~src:t in
      let scale = [| 1.0; 0.6; 0.0 |].(seed mod 3) in
      let h v = scale *. G.Dijkstra.dist back v in
      let plain = G.Dijkstra.run ~targets:[ t ] g ~src:0 in
      let astar =
        G.Dijkstra.run ~targets:[ t ] ~future_cost:h g ~src:0
      in
      if G.Dijkstra.settled_count astar > G.Dijkstra.settled_count plain then
        QCheck.Test.fail_report "goal-direction settled more nodes than plain";
      if not (G.Dijkstra.future_cost_evals astar > 0) then
        QCheck.Test.fail_report "no heuristic evaluations recorded";
      if G.Dijkstra.future_cost_evals plain <> 0 then
        QCheck.Test.fail_report "plain run evaluated a heuristic";
      (* Resuming a goal-directed frontier to completion must land on the
         exact state a plain full run produces. *)
      G.Dijkstra.extend_all plain;
      G.Dijkstra.extend_all astar;
      for v = 0 to n - 1 do
        if G.Dijkstra.dist plain v <> G.Dijkstra.dist astar v then
          QCheck.Test.fail_reportf "dist mismatch at %d" v;
        if plain.G.Dijkstra.parent_edge.(v) <> astar.G.Dijkstra.parent_edge.(v) then
          QCheck.Test.fail_reportf "parent mismatch at %d" v
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Mst                                                                *)
(* ------------------------------------------------------------------ *)

let test_prim_dense_triangle () =
  let w = [| [| 0.; 1.; 3. |]; [| 1.; 0.; 1.5 |]; [| 3.; 1.5; 0. |] |] in
  let edges, cost = G.Mst.prim_dense ~n:3 ~weight:(fun i j -> w.(i).(j)) in
  Alcotest.(check (float 1e-9)) "cost" 2.5 cost;
  Alcotest.(check int) "edge count" 2 (List.length edges)

let test_prim_dense_trivial () =
  Alcotest.(check bool) "n=0" true (G.Mst.prim_dense ~n:0 ~weight:(fun _ _ -> 1.) = ([], 0.));
  Alcotest.(check bool) "n=1" true (G.Mst.prim_dense ~n:1 ~weight:(fun _ _ -> 1.) = ([], 0.))

let test_prim_dense_disconnected () =
  let weight i j = if (i < 2) = (j < 2) then 1. else infinity in
  let _, cost = G.Mst.prim_dense ~n:4 ~weight in
  Alcotest.(check (float 1e-9)) "disconnected cost" infinity cost

let test_kruskal_basic () =
  let edges = [ (10, 20, 1., 0); (20, 30, 2., 1); (10, 30, 2.5, 2) ] in
  let chosen, cost = G.Mst.kruskal ~nodes:[ 10; 20; 30 ] ~edges in
  Alcotest.(check (float 1e-9)) "cost" 3. cost;
  Alcotest.(check int) "chosen" 2 (List.length chosen)

let test_kruskal_disconnected () =
  let _, cost = G.Mst.kruskal ~nodes:[ 1; 2; 3 ] ~edges:[ (1, 2, 1., 0) ] in
  Alcotest.(check (float 1e-9)) "forest cost" infinity cost

let prop_prim_matches_kruskal =
  QCheck.Test.make ~name:"Prim = Kruskal cost on random dense graphs" ~count:100
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = 2 + Rng.int rng 12 in
      let w = Array.make_matrix n n 0. in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let x = 0.1 +. Rng.float rng 9.9 in
          w.(i).(j) <- x;
          w.(j).(i) <- x
        done
      done;
      let _, pc = G.Mst.prim_dense ~n ~weight:(fun i j -> w.(i).(j)) in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          edges := (i, j, w.(i).(j), List.length !edges) :: !edges
        done
      done;
      let _, kc = G.Mst.kruskal ~nodes:(List.init n (fun i -> i)) ~edges:!edges in
      Float.abs (pc -. kc) < 1e-6)

(* [Mst.prim_searches] over a cache's [search_sym] must be [prim_dense]
   over [dist_sym] bit for bit: the same edges in the same order, cost,
   longest pick and searches (the same sources, opened by the same calls),
   settling no node the dense run does not.  Weights from {0.1, 0.2, 0.3,
   0.7} make a distance summed from either end round differently, so the
   side each pair is read from matters; unit grids force ties in the pick
   and in [best_from]; weights from {0, 1, 2} put nodes at the distance
   of their zero-weight neighbours, so a pair can tie the pick while its
   target's entry is still above it; an isolated terminal makes picks
   infinite; and caches pre-warmed from some terminals, partially
   settled, send [dist_sym]'s side rule down both branches: reuse an
   entry, or open one. *)
let prop_prim_searches_matches_dense =
  QCheck.Test.make ~name:"prim_searches = prim_dense over dist_sym" ~count:400
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let isolated = seed mod 5 = 0 in
      let graph_kind = seed mod 3 in
      let g =
        if graph_kind < 2 then begin
          let n = 8 + Rng.int rng 30 in
          let b = G.Wgraph.create (if isolated then n + 1 else n) in
          let weights = if graph_kind = 0 then [| 0.1; 0.2; 0.3; 0.7 |] else [| 0.; 1.; 2. |] in
          let weight () = weights.(Rng.int rng (Array.length weights)) in
          for v = 1 to n - 1 do
            ignore (G.Wgraph.add_edge b (Rng.int rng v) v (weight ()))
          done;
          for _ = 1 to n do
            let u = Rng.int rng n and v = Rng.int rng n in
            if u <> v then ignore (G.Wgraph.add_edge b u v (weight ()))
          done;
          G.Gstate.of_builder b
        end
        else (G.Grid.create ~width:(3 + Rng.int rng 5) ~height:(3 + Rng.int rng 5)).G.Grid.graph
      in
      let n = G.Gstate.num_nodes g in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let k = Int.min n (2 + Rng.int rng 9) in
      let ts = Array.sub perm 0 k in
      (* The isolated node is the last; make it a terminal. *)
      if isolated && graph_kind < 2 then ts.(Rng.int rng k) <- n - 1;
      let ts = Array.of_list (List.sort_uniq Int.compare (Array.to_list ts)) in
      let k = Array.length ts in
      let warm =
        List.filter_map
          (fun t ->
            if Rng.int rng 3 = 0 then
              Some (t, List.init (Rng.int rng 3) (fun _ -> ts.(Rng.int rng k)))
            else None)
          (Array.to_list ts)
      in
      let cache () =
        let c = G.Dist_cache.create g in
        List.iter (fun (src, targets) -> ignore (G.Dist_cache.result_for c ~src ~targets)) warm;
        c
      in
      let dense = cache () and lazy_ = cache () in
      let read = Hashtbl.create 64 in
      let weight i j =
        let d = G.Dist_cache.dist_sym dense ts.(i) ts.(j) in
        Hashtbl.replace read (i, j) d;
        d
      in
      let want_edges, want_cost = G.Mst.prim_dense ~n:k ~weight in
      let want_longest =
        List.fold_left (fun l e -> Float.max l (Hashtbl.find read e)) neg_infinity want_edges
      in
      let edges, cost, longest =
        G.Mst.prim_searches ~nodes:ts ~search:(fun i j -> G.Dist_cache.search_sym lazy_ ts.(i) ts.(j))
      in
      let bits x = Int64.bits_of_float x in
      if edges <> want_edges then QCheck.Test.fail_reportf "seed %d: edges differ" seed;
      if not (Int64.equal (bits cost) (bits want_cost)) then
        QCheck.Test.fail_reportf "seed %d: cost %h, prim_dense %h" seed cost want_cost;
      if not (Int64.equal (bits longest) (bits want_longest)) then
        QCheck.Test.fail_reportf "seed %d: longest %h, prim_dense %h" seed longest want_longest;
      if G.Dist_cache.runs lazy_ <> G.Dist_cache.runs dense then
        QCheck.Test.fail_reportf "seed %d: %d searches, prim_dense %d" seed
          (G.Dist_cache.runs lazy_) (G.Dist_cache.runs dense);
      Array.iter
        (fun t ->
          if G.Dist_cache.cached lazy_ t <> G.Dist_cache.cached dense t then
            QCheck.Test.fail_reportf "seed %d: terminal %d searched on one side only" seed t)
        ts;
      if G.Dist_cache.settled_nodes lazy_ > G.Dist_cache.settled_nodes dense then
        QCheck.Test.fail_reportf "seed %d: settled %d nodes, prim_dense %d" seed
          (G.Dist_cache.settled_nodes lazy_) (G.Dist_cache.settled_nodes dense);
      true)

let test_prim_searches_trivial () =
  let g = graph 2 [ (0, 1, 1.) ] in
  let c = G.Dist_cache.create g in
  let search i j = G.Dist_cache.search_sym c i j in
  Alcotest.(check bool) "n=0" true
    (G.Mst.prim_searches ~nodes:[||] ~search = ([], 0., neg_infinity));
  Alcotest.(check bool) "n=1" true
    (G.Mst.prim_searches ~nodes:[| 1 |] ~search = ([], 0., neg_infinity));
  Alcotest.(check int) "no search opened" 0 (G.Dist_cache.runs c)

(* ------------------------------------------------------------------ *)
(* Tree                                                               *)
(* ------------------------------------------------------------------ *)

let test_tree_metrics () =
  let g, e01, _, _, e23, e12 = diamond () in
  let t = G.Tree.of_edges [ e01; e12; e23 ] in
  Alcotest.(check (float 1e-9)) "cost" 2.5 (G.Tree.cost g t);
  Alcotest.(check bool) "is tree" true (G.Tree.is_tree g t);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (G.Tree.nodes g t);
  Alcotest.(check bool) "spans" true (G.Tree.spans g t [ 0; 3 ]);
  let weight = G.Gstate.weight g in
  Alcotest.(check (float 1e-9)) "path length" 2.5 (G.Tree.max_path_length ~weight g t ~src:0 ~sinks:[ 3 ]);
  Alcotest.(check (float 1e-9)) "max path" 2.5 (G.Tree.max_path_length ~weight g t ~src:0 ~sinks:[ 1; 3 ]);
  Alcotest.(check (float 1e-9)) "edge weight override" 3.
    (G.Tree.max_path_length ~weight:(fun _ -> 1.) g t ~src:0 ~sinks:[ 1; 3 ])

let test_tree_cycle_detection () =
  let g, e01, e02, _, _, e12 = diamond () in
  let t = G.Tree.of_edges [ e01; e02; e12 ] in
  Alcotest.(check bool) "cycle is not a tree" false (G.Tree.is_tree g t)

let test_tree_disconnected () =
  let g = graph 4 [ (0, 1, 1.); (2, 3, 1.) ] in
  let a = 0 and b = 1 in
  let t = G.Tree.of_edges [ a; b ] in
  Alcotest.(check bool) "forest is not a tree" false (G.Tree.is_tree g t)

let test_tree_prune () =
  let g, e01, _, e13, e23, e12 = diamond () in
  (* Path 0-1, 1-2, 2-3 plus spur 1-3: not a tree; use tree 0-1,1-2,2-3. *)
  ignore e13;
  let t = G.Tree.of_edges [ e01; e12; e23 ] in
  let pruned = G.Tree.prune g t ~keep:[ 0; 2 ] in
  (* 3 is a leaf not kept: e23 goes; then 2 is kept. *)
  Alcotest.(check int) "pruned size" 2 (List.length pruned.G.Tree.edges);
  Alcotest.(check bool) "still spans" true (G.Tree.spans g pruned [ 0; 2 ])

let test_tree_prune_cascade () =
  (* A path 0-1-2-3 keeping only 0: everything prunes away. *)
  let g = graph 4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let t = G.Tree.of_edges [ 0; 1; 2 ] in
  let pruned = G.Tree.prune g t ~keep:[ 0 ] in
  Alcotest.(check int) "fully pruned" 0 (List.length pruned.G.Tree.edges)

let test_tree_empty () =
  let g = graph 2 [] in
  Alcotest.(check bool) "empty is tree" true (G.Tree.is_tree g G.Tree.empty);
  Alcotest.(check bool) "single terminal spanned" true (G.Tree.spans g G.Tree.empty [ 1 ]);
  Alcotest.(check (float 1e-9)) "empty cost" 0. (G.Tree.cost g G.Tree.empty)

(* ------------------------------------------------------------------ *)
(* Grid                                                               *)
(* ------------------------------------------------------------------ *)

let test_grid_structure () =
  let gr = G.Grid.create ~width:4 ~height:3 in
  Alcotest.(check int) "nodes" 12 (G.Gstate.num_nodes gr.G.Grid.graph);
  (* edges: 3*3 horizontal rows? horizontal: (4-1)*3 = 9, vertical: 4*2 = 8 *)
  Alcotest.(check int) "edges" 17 (G.Gstate.num_edges gr.G.Grid.graph);
  let n = G.Grid.node gr ~x:2 ~y:1 in
  Alcotest.(check bool) "coords roundtrip" true (G.Grid.coords gr n = (2, 1));
  Alcotest.(check int) "manhattan" 3
    (G.Grid.manhattan gr (G.Grid.node gr ~x:0 ~y:0) (G.Grid.node gr ~x:2 ~y:1))

let test_grid_distances_rectilinear () =
  (* Fig 3a: before any routing, graph distance = rectilinear distance. *)
  let gr = G.Grid.create ~width:6 ~height:6 in
  let src = G.Grid.node gr ~x:1 ~y:2 in
  let r = G.Dijkstra.run gr.G.Grid.graph ~src in
  let ok = ref true in
  for v = 0 to 35 do
    if Float.abs (G.Dijkstra.dist r v -. float_of_int (G.Grid.manhattan gr src v)) > 1e-9 then
      ok := false
  done;
  Alcotest.(check bool) "all distances rectilinear" true !ok

let test_grid_edge_lookup () =
  let gr = G.Grid.create ~width:3 ~height:3 in
  let g = gr.G.Grid.graph in
  (* the edges out of a node, as (neighbor, edge) pairs *)
  let edges_from u = G.Gstate.fold_adj g u (fun acc e v _ -> (v, e) :: acc) [] in
  let edge a b =
    match List.assoc_opt b (edges_from a) with
    | Some e -> e
    | None -> Alcotest.failf "no grid edge %d-%d" a b
  in
  let e = edge (G.Grid.node gr ~x:0 ~y:0) (G.Grid.node gr ~x:1 ~y:0) in
  Alcotest.(check bool) "horizontal endpoints" true
    (G.Gstate.endpoints g e = (G.Grid.node gr ~x:0 ~y:0, G.Grid.node gr ~x:1 ~y:0));
  let e' = edge (G.Grid.node gr ~x:2 ~y:1) (G.Grid.node gr ~x:2 ~y:2) in
  Alcotest.(check bool) "vertical endpoints" true
    (G.Gstate.endpoints g e' = (G.Grid.node gr ~x:2 ~y:1, G.Grid.node gr ~x:2 ~y:2));
  Alcotest.(check int) "corner degree" 2 (List.length (edges_from (G.Grid.node gr ~x:0 ~y:0)));
  Alcotest.(check int) "center degree" 4 (List.length (edges_from (G.Grid.node gr ~x:1 ~y:1)));
  Alcotest.(check bool) "no diagonal" true
    (List.assoc_opt (G.Grid.node gr ~x:1 ~y:1) (edges_from (G.Grid.node gr ~x:0 ~y:0)) = None)

let test_grid_bad_args () =
  Alcotest.check_raises "empty grid" (Invalid_argument "Grid.create: empty grid") (fun () ->
      ignore (G.Grid.create ~width:0 ~height:3));
  let gr = G.Grid.create ~width:2 ~height:2 in
  Alcotest.check_raises "node out of range" (Invalid_argument "Grid.node: out of range")
    (fun () -> ignore (G.Grid.node gr ~x:2 ~y:0))

(* ------------------------------------------------------------------ *)
(* Random_graph                                                       *)
(* ------------------------------------------------------------------ *)

let test_random_graph_connected () =
  let rng = Rng.make 11 in
  let g = G.Random_graph.connected rng ~n:40 ~m:100 ~wmin:1. ~wmax:2. in
  let r = G.Dijkstra.run g ~src:0 in
  let all_reachable = ref true in
  for v = 0 to 39 do
    if not (G.Dijkstra.reachable r v) then all_reachable := false
  done;
  Alcotest.(check bool) "connected" true !all_reachable;
  Alcotest.(check bool) "edge count ~m" true (G.Gstate.num_edges g >= 39)

let test_random_net () =
  let rng = Rng.make 12 in
  let g = G.Random_graph.connected rng ~n:20 ~m:40 ~wmin:1. ~wmax:1. in
  let net = G.Random_graph.random_net rng g ~k:5 in
  Alcotest.(check int) "net size" 5 (List.length net);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare net))

(* ------------------------------------------------------------------ *)
(* Dist_cache                                                         *)
(* ------------------------------------------------------------------ *)

let test_dist_cache_memoizes () =
  let g, _, _, _, _, _ = diamond () in
  let c = G.Dist_cache.create g in
  ignore (G.Dist_cache.dist c ~src:0 ~dst:3);
  ignore (G.Dist_cache.dist c ~src:0 ~dst:1);
  Alcotest.(check int) "one run" 1 (G.Dist_cache.runs c);
  ignore (G.Dist_cache.dist c ~src:1 ~dst:3);
  Alcotest.(check int) "two runs" 2 (G.Dist_cache.runs c)

(* A cache serves the graph state it was created on: after a mutation it
   refuses instead of answering, and a fresh cache reads the new state. *)
let test_dist_cache_invalidation () =
  let g, e01, _, _, _, _ = diamond () in
  let c = G.Dist_cache.create g in
  Alcotest.(check (float 1e-9)) "before" 1. (G.Dist_cache.dist c ~src:0 ~dst:1);
  G.Gstate.set_weight g e01 10.;
  Alcotest.check_raises "refused after a mutation"
    (Invalid_argument "Dist_cache.dist: graph mutated since the cache was created") (fun () ->
      ignore (G.Dist_cache.dist c ~src:0 ~dst:1));
  Alcotest.(check (float 1e-9))
    "a fresh cache reads the new state (via 2)" 2.5
    (G.Dist_cache.dist (G.Dist_cache.create g) ~src:0 ~dst:1)

(* Every public lookup refuses a mutated graph, naming itself, whether or
   not the source it asks for has an entry. *)
let dist_cache_lookups =
  let open G.Dist_cache in
  [
    ("result", fun c -> ignore (result c ~src:3));
    ("result_for", fun c -> ignore (result_for c ~src:3 ~targets:[ 0 ]));
    ("settle_below", fun c -> settle_below c ~src:0 1.);
    ("dist", fun c -> ignore (dist c ~src:0 ~dst:3));
    ("dist_sym", fun c -> ignore (dist_sym c 3 0));
    ("search_sym", fun c -> ignore (search_sym c 3 0));
    ("path_edges_sym", fun c -> ignore (path_edges_sym c 0 3));
    ("cached", fun c -> ignore (cached c 0));
  ]

let test_dist_cache_refuses_mutated (entry, lookup) () =
  let g, _, _, _, _, _ = diamond () in
  let c = G.Dist_cache.create g in
  ignore (G.Dist_cache.dist c ~src:0 ~dst:1);
  G.Gstate.disable_node g 2;
  Alcotest.check_raises entry
    (Invalid_argument
       (Printf.sprintf "Dist_cache.%s: graph mutated since the cache was created" entry))
    (fun () -> lookup c)

let test_dist_cache_sym () =
  let g, _, _, _, _, _ = diamond () in
  let c = G.Dist_cache.create g in
  ignore (G.Dist_cache.result c ~src:3);
  Alcotest.(check bool) "cached side" true (G.Dist_cache.cached c 3);
  let d = G.Dist_cache.dist_sym c 0 3 in
  Alcotest.(check (float 1e-9)) "sym dist" 2.5 d;
  (* Served from node 3's result: still a single run. *)
  Alcotest.(check int) "no extra run" 1 (G.Dist_cache.runs c);
  let p = G.Dist_cache.path_edges_sym c 0 3 in
  let total = List.fold_left (fun acc e -> acc +. G.Gstate.weight g e) 0. p in
  Alcotest.(check (float 1e-9)) "sym path cost" 2.5 total

(* Targeted runs and resumed partial runs must agree with a full run
   everywhere: settled prefixes of Dijkstra are final. *)
let prop_targeted_equals_full =
  QCheck.Test.make ~name:"targeted/resumed Dijkstra = full run" ~count:60
    QCheck.(pair (int_range 3 30) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n ~m:(3 * n) ~wmin:0.2 ~wmax:5. in
      let full = G.Dijkstra.run g ~src:0 in
      let some_targets = [ n - 1; n / 2 ] in
      let r = G.Dijkstra.run ~targets:some_targets g ~src:0 in
      List.iter
        (fun t ->
          if not (G.Dijkstra.is_settled r t) then
            QCheck.Test.fail_reportf "target %d not settled" t)
        some_targets;
      if G.Dijkstra.settled_count r > G.Dijkstra.settled_count full then
        QCheck.Test.fail_report "targeted settled more than full";
      (* Resume towards every node, in two steps, then compare everywhere. *)
      G.Dijkstra.extend r ~targets:[ 1; n - 2 ];
      G.Dijkstra.extend_all r;
      for v = 0 to n - 1 do
        if G.Dijkstra.dist full v <> G.Dijkstra.dist r v then
          QCheck.Test.fail_reportf "dist mismatch at %d" v;
        let cost edges = List.fold_left (fun a e -> a +. G.Gstate.weight g e) 0. edges in
        let pf = cost (G.Dijkstra.path_edges full v) and pr = cost (G.Dijkstra.path_edges r v) in
        if Float.abs (pf -. pr) > 1e-9 then QCheck.Test.fail_reportf "path mismatch at %d" v
      done;
      true)

(* On-demand accessors transparently extend a partial result. *)
let test_dijkstra_lazy_extension () =
  let rng = Rng.make 77 in
  let g = G.Random_graph.connected rng ~n:40 ~m:120 ~wmin:0.5 ~wmax:3. in
  let full = G.Dijkstra.run g ~src:0 in
  let r = G.Dijkstra.run ~targets:[ 1 ] g ~src:0 in
  Alcotest.(check bool) "partial" true (G.Dijkstra.settled_count r <= G.Dijkstra.settled_count full);
  (* dist on an unsettled node resumes the search rather than lying. *)
  Alcotest.(check (float 1e-9)) "lazy dist" (G.Dijkstra.dist full 39) (G.Dijkstra.dist r 39);
  Alcotest.(check bool) "now settled" true (G.Dijkstra.is_settled r 39);
  G.Dijkstra.extend_all r;
  Alcotest.(check bool) "complete" true (G.Dijkstra.complete r);
  Alcotest.(check int) "same settled" (G.Dijkstra.settled_count full) (G.Dijkstra.settled_count r)

(* The stop rule: a targeted run settles exactly the settle-order prefix
   that ends at its last distinct unsettled target, whatever duplicates,
   already-settled nodes or the source the list holds.  The reference
   order comes from a full run's final keys: the search settles nodes in
   increasing (f, g) order with f = g + h(v) (h(src) at the source), and
   with random real weights no two reachable nodes share a key.  A
   disabled node sometimes cuts targets off, which must exhaust the
   search. *)
let prop_dijkstra_stop_rule =
  QCheck.Test.make ~name:"targeted run stops at its last distinct target" ~count:150
    QCheck.(pair (int_range 4 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n ~m:(3 * n) ~wmin:0.2 ~wmax:5. in
      let src = Rng.int rng n in
      let future =
        if Random.State.bool rng then None
        else begin
          (* 0.6 x the distance to a landmark: admissible and consistent
             toward any target set. *)
          let back = G.Dijkstra.run g ~src:(Rng.int rng n) in
          Some (fun v -> 0.6 *. G.Dijkstra.dist back v)
        end
      in
      if Rng.int rng 3 = 0 then begin
        let x = Rng.int rng n in
        if x <> src then G.Gstate.disable_node g x
      end;
      let full = G.Dijkstra.run ?future_cost:future g ~src in
      let h v = match future with None -> 0. | Some f -> f v in
      let reached = List.filter (G.Dijkstra.reachable full) (List.init n Fun.id) in
      let key v =
        let d = G.Dijkstra.dist full v in
        (d +. h v, d)
      in
      let order = List.sort (fun a b -> compare (key a) (key b)) reached in
      let distinct_keys = List.length (List.sort_uniq compare (List.map key order)) in
      QCheck.assume (distinct_keys = List.length order);
      let rank = Array.make n (-1) in
      List.iteri (fun i v -> rank.(v) <- i) order;
      let expected ts =
        if List.exists (fun t -> rank.(t) < 0) ts then List.length reached
        else 1 + List.fold_left (fun acc t -> max acc rank.(t)) 0 ts
      in
      let pick () = List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n) in
      (* A duplicated first target, and sometimes the source. *)
      let ts =
        match pick () with
        | t :: _ as l -> (t :: l) @ if Random.State.bool rng then [ src ] else []
        | [] -> []
      in
      let r = G.Dijkstra.run ~targets:ts ?future_cost:future g ~src in
      if G.Dijkstra.settled_count r <> expected ts then
        QCheck.Test.fail_reportf "run settled %d, expected %d" (G.Dijkstra.settled_count r)
          (expected ts);
      (* Targets the run already settled cost nothing more. *)
      let settled_ts = List.filter (G.Dijkstra.is_settled r) (src :: ts) in
      let before = G.Dijkstra.settled_count r in
      G.Dijkstra.extend r ~targets:(settled_ts @ settled_ts);
      if G.Dijkstra.settled_count r <> before then
        QCheck.Test.fail_report "extend over settled targets settled more";
      (* A resumed lookup mixing settled and fresh targets stops at its own
         last distinct target. *)
      let ts2 = settled_ts @ pick () in
      G.Dijkstra.extend r ~targets:(ts2 @ ts2);
      let want = max before (expected ts2) in
      if G.Dijkstra.settled_count r <> want then
        QCheck.Test.fail_reportf "extend settled %d, expected %d" (G.Dijkstra.settled_count r)
          want;
      true)

(* Every accessor that takes a node names itself when the node is out of
   range, on a partial and on a complete result, and the failed call
   settles nothing. *)
let dijkstra_accessors =
  [
    ("dist", fun r v -> ignore (G.Dijkstra.dist r v));
    ("reachable", fun r v -> ignore (G.Dijkstra.reachable r v));
    ("path_edges", fun r v -> ignore (G.Dijkstra.path_edges r v));
    ("path_nodes", fun r v -> ignore (G.Dijkstra.path_nodes r v));
    ("is_settled", fun r v -> ignore (G.Dijkstra.is_settled r v));
    ("is_final", fun r v -> ignore (G.Dijkstra.is_final r v));
    ("extend_toward", fun r v -> G.Dijkstra.extend_toward r ~target:v ~below:infinity);
  ]

let test_dijkstra_node_range (name, access) () =
  let g, _, _, _, _, _ = diamond () in
  let partial = G.Dijkstra.run ~targets:[ 1 ] g ~src:0 in
  let complete = G.Dijkstra.run g ~src:0 in
  List.iter
    (fun (kind, r) ->
      let before = G.Dijkstra.settled_count r in
      List.iter
        (fun v ->
          Alcotest.check_raises
            (Printf.sprintf "%s node %d" kind v)
            (Invalid_argument ("Dijkstra." ^ name ^ ": node out of range"))
            (fun () -> access r v))
        [ -1; 4; max_int ];
      Alcotest.(check int) (kind ^ " settled nothing") before (G.Dijkstra.settled_count r))
    [ ("partial", partial); ("complete", complete) ]

(* The search's decrease-key frontier must settle nodes exactly as a
   lazy-deletion search does: duplicates pushed onto a [Heap] on every
   strict improvement, stale entries skipped on pop, the same (f, g, seq)
   order, canonical parents and stop rule.  This is that search,
   resumable. *)
type lazy_search = {
  lg : G.Gstate.t;
  region : Fr_util.Bitset.t option;
  h : (int -> float) option;
  ldist : float array;
  lparent : int array;
  settled : bool array;
  heap : G.Heap.t;
  mutable evals : int;
  mutable count : int;
  mutable exhausted : bool;
}

let lazy_run ?region ?h g ~src =
  let n = G.Gstate.num_nodes g in
  let s =
    {
      lg = g;
      region;
      h;
      ldist = Array.make n infinity;
      lparent = Array.make n (-1);
      settled = Array.make n false;
      heap = G.Heap.create ();
      evals = 0;
      count = 0;
      exhausted = false;
    }
  in
  s.ldist.(src) <- 0.;
  let f0 =
    match h with
    | None -> 0.
    | Some h ->
        s.evals <- 1;
        h src
  in
  G.Heap.push s.heap f0 0. src;
  s

(* Settle until every listed node is settled ([None]: until exhausted). *)
let lazy_lookup s targets =
  let pending = Hashtbl.create 8 in
  List.iter
    (fun t -> if not s.settled.(t) then Hashtbl.replace pending t ())
    (Option.value targets ~default:[]);
  let go = ref ((not s.exhausted) && (Option.is_none targets || Hashtbl.length pending > 0)) in
  while !go do
    if G.Heap.is_empty s.heap then begin
      s.exhausted <- true;
      go := false
    end
    else begin
      let u = G.Heap.pop s.heap in
      if not s.settled.(u) then begin
        s.settled.(u) <- true;
        s.count <- s.count + 1;
        let d = s.ldist.(u) in
        G.Gstate.iter_adj s.lg u (fun e v w ->
            let allowed =
              match s.region with None -> true | Some b -> Fr_util.Bitset.get b v
            in
            if (not s.settled.(v)) && allowed then begin
              let nd = d +. w in
              if nd < s.ldist.(v) then begin
                s.ldist.(v) <- nd;
                s.lparent.(v) <- e;
                let f =
                  match s.h with
                  | None -> nd
                  | Some h ->
                      s.evals <- s.evals + 1;
                      nd +. h v
                in
                G.Heap.push s.heap f nd v
              end
              else if nd <= s.ldist.(v) && e < s.lparent.(v) then s.lparent.(v) <- e
            end);
        Hashtbl.remove pending u;
        if Option.is_some targets && Hashtbl.length pending = 0 then go := false
      end
    end
  done

let prop_frontier_matches_lazy_reference =
  QCheck.Test.make ~name:"frontier = lazy-deletion reference, ties included" ~count:300
    QCheck.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      (* A random spanning tree plus extra edges, weights 1-3: full
         (f, g) ties are common, so the seq tie-break decides pops. *)
      let b = G.Wgraph.create n in
      let weight () = float_of_int (1 + Rng.int rng 3) in
      for v = 1 to n - 1 do
        ignore (G.Wgraph.add_edge b (Rng.int rng v) v (weight ()))
      done;
      for _ = 1 to 2 * n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then ignore (G.Wgraph.add_edge b u v (weight ()))
      done;
      let g = G.Gstate.of_builder b in
      let src = Rng.int rng n in
      (* The exact distance to a landmark is a consistent heuristic. *)
      let h =
        if Random.State.bool rng then None
        else begin
          let back = G.Dijkstra.run g ~src:(Rng.int rng n) in
          Some (fun v -> G.Dijkstra.dist back v)
        end
      in
      let region =
        if Random.State.bool rng then None
        else begin
          let keep = Fr_util.Bitset.create n in
          for v = 0 to n - 1 do
            if Rng.int rng 4 = 0 then Fr_util.Bitset.set keep v false
          done;
          Some keep
        end
      in
      (if Rng.int rng 3 = 0 then
         let x = Rng.int rng n in
         if x <> src then G.Gstate.disable_node g x);
      let pick () =
        let l = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
        l @ if Random.State.bool rng then l else []
      in
      let ref_s = lazy_run ?region ?h g ~src in
      let first = if Rng.int rng 5 = 0 then None else Some (pick ()) in
      let r = G.Dijkstra.run ?restrict:region ?targets:first ?future_cost:h g ~src in
      lazy_lookup ref_s first;
      let check what =
        if G.Dijkstra.settled_count r <> ref_s.count then
          QCheck.Test.fail_reportf "%s: settled %d, reference %d" what
            (G.Dijkstra.settled_count r) ref_s.count;
        if G.Dijkstra.future_cost_evals r <> ref_s.evals then
          QCheck.Test.fail_reportf "%s: %d h-evals, reference %d" what
            (G.Dijkstra.future_cost_evals r) ref_s.evals;
        if G.Dijkstra.complete r <> ref_s.exhausted then
          QCheck.Test.fail_reportf "%s: exhaustion differs" what;
        for v = 0 to n - 1 do
          if G.Dijkstra.is_settled r v <> ref_s.settled.(v) then
            QCheck.Test.fail_reportf "%s: node %d settled only on one side" what v;
          if ref_s.settled.(v) then begin
            if not (Float.equal r.G.Dijkstra.dist.(v) ref_s.ldist.(v)) then
              QCheck.Test.fail_reportf "%s: dist at %d differs" what v;
            if r.G.Dijkstra.parent_edge.(v) <> ref_s.lparent.(v) then
              QCheck.Test.fail_reportf "%s: parent edge at %d differs" what v
          end
        done
      in
      check "run";
      (* Resumed lookups: extends with duplicate targets, and accessors,
         which settle on demand. *)
      for step = 1 to 3 do
        if Random.State.bool rng then begin
          let ts = pick () in
          G.Dijkstra.extend r ~targets:ts;
          lazy_lookup ref_s (Some ts);
          check (Printf.sprintf "extend %d" step)
        end
        else begin
          let v = Rng.int rng n in
          ignore (G.Dijkstra.dist r v);
          lazy_lookup ref_s (Some [ v ]);
          check (Printf.sprintf "dist %d" step)
        end
      done;
      G.Dijkstra.extend_all r;
      lazy_lookup ref_s None;
      check "extend_all";
      true)

(* A connected random graph on [n] nodes (a random tree plus [2n] more
   edges), weighted by [weight], a search source and, half the time, a
   region that drops about a quarter of the nodes. *)
let random_search_instance rng n weight =
  let b = G.Wgraph.create n in
  for v = 1 to n - 1 do
    ignore (G.Wgraph.add_edge b (Rng.int rng v) v (weight ()))
  done;
  for _ = 1 to 2 * n do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then ignore (G.Wgraph.add_edge b u v (weight ()))
  done;
  let g = G.Gstate.of_builder b in
  let src = Rng.int rng n in
  let region =
    if Random.State.bool rng then None
    else begin
      let keep = Fr_util.Bitset.create n in
      for v = 0 to n - 1 do
        if Rng.int rng 4 = 0 then Fr_util.Bitset.set keep v false
      done;
      Some keep
    end
  in
  (g, src, region)

(* [extend_below] against the lazy-deletion reference run to exhaustion:
   it must settle exactly the nodes settled before plus those the
   reference puts closer than the bound (a plain search settles in
   distance order), leave every entry up to the bound bit-equal to the
   reference and every other above it, and a later [extend_all] must
   match the full run.  Weights from {0.1, 0.2, 0.3, 0.7} make sums round
   differently along different paths; integer weights make ties.  Some
   bounds are exact distances, so nodes sit on the bound itself. *)
let prop_extend_below_matches_reference =
  QCheck.Test.make ~name:"extend_below = distance cut of the reference" ~count:300
    QCheck.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let weight =
        if Random.State.bool rng then fun () -> [| 0.1; 0.2; 0.3; 0.7 |].(Rng.int rng 4)
        else fun () -> float_of_int (1 + Rng.int rng 2)
      in
      let g, src, region = random_search_instance rng n weight in
      let ref_s = lazy_run ?region g ~src in
      lazy_lookup ref_s None;
      let first = List.init (Rng.int rng 4) (fun _ -> Rng.int rng n) in
      let r = G.Dijkstra.run ?restrict:region ~targets:first g ~src in
      let before = Array.init n (G.Dijkstra.is_settled r) in
      let bound =
        match Rng.int rng 4 with
        | 0 -> Rng.float rng 3.
        | 1 -> infinity
        | _ -> ref_s.ldist.(Rng.int rng n)
      in
      G.Dijkstra.extend_below r bound;
      let expected = ref 0 in
      for v = 0 to n - 1 do
        let want = before.(v) || ref_s.ldist.(v) < bound in
        if want then incr expected;
        if G.Dijkstra.is_settled r v <> want then
          QCheck.Test.fail_reportf "node %d: settled %b, expected %b" v (not want) want;
        let d = r.G.Dijkstra.dist.(v) in
        if ref_s.ldist.(v) <= bound then begin
          if not (Float.equal d ref_s.ldist.(v)) then
            QCheck.Test.fail_reportf "node %d: dist %h, reference %h (bound %h)" v d
              ref_s.ldist.(v) bound
        end
        else if not (d > bound) then
          QCheck.Test.fail_reportf "node %d: entry %h not above the bound %h" v d bound
      done;
      if G.Dijkstra.settled_count r <> !expected then
        QCheck.Test.fail_reportf "settled_count %d, expected %d" (G.Dijkstra.settled_count r)
          !expected;
      G.Dijkstra.extend_all r;
      if G.Dijkstra.settled_count r <> ref_s.count then
        QCheck.Test.fail_reportf "extend_all settled %d, reference %d"
          (G.Dijkstra.settled_count r) ref_s.count;
      for v = 0 to n - 1 do
        if not (Float.equal r.G.Dijkstra.dist.(v) ref_s.ldist.(v)) then
          QCheck.Test.fail_reportf "extend_all: dist at %d differs" v;
        if r.G.Dijkstra.parent_edge.(v) <> ref_s.lparent.(v) then
          QCheck.Test.fail_reportf "extend_all: parent edge at %d differs" v
      done;
      true)

(* [extend_toward] stops at the target or at the bound, whichever
   the drain reaches first, and [is_final] holds exactly where an entry
   already equals the full run's.  Checked against the lazy-deletion
   reference run to exhaustion, after a first targeted lookup and two
   bounded ones: every node the call settled is no farther than the
   target and closer than the bound; every node strictly closer than both
   is settled; a target left unsettled means every node closer than the
   bound is; a final entry is bit-equal to the reference, and a settled
   node is final.  Weights from {0, 1, 2} put nodes at the distance of
   their zero-weight neighbours, where an entry can still fall though the
   frontier has reached it. *)
let prop_extend_toward_and_is_final =
  QCheck.Test.make ~name:"extend_toward and is_final against the reference" ~count:300
    QCheck.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let weights =
        match Rng.int rng 3 with
        | 0 -> [| 0.1; 0.2; 0.3; 0.7 |]
        | 1 -> [| 1.; 2. |]
        | _ -> [| 0.; 1.; 2. |]
      in
      let g, src, region =
        random_search_instance rng n (fun () -> weights.(Rng.int rng (Array.length weights)))
      in
      let ref_s = lazy_run ?region g ~src in
      lazy_lookup ref_s None;
      let d = ref_s.ldist in
      let first = List.init (Rng.int rng 3) (fun _ -> Rng.int rng n) in
      let r = G.Dijkstra.run ?restrict:region ~targets:first g ~src in
      let check_final what =
        for v = 0 to n - 1 do
          if G.Dijkstra.is_settled r v && not (G.Dijkstra.is_final r v) then
            QCheck.Test.fail_reportf "%s: node %d settled but not final" what v;
          if G.Dijkstra.is_final r v && not (Float.equal r.G.Dijkstra.dist.(v) d.(v)) then
            QCheck.Test.fail_reportf "%s: node %d final at %h, reference %h" what v
              r.G.Dijkstra.dist.(v) d.(v)
        done
      in
      check_final "first lookup";
      for step = 1 to 2 do
        let before = Array.init n (G.Dijkstra.is_settled r) in
        let target = Rng.int rng n in
        let bound =
          match Rng.int rng 3 with
          | 0 -> Rng.float rng 4.
          | 1 -> infinity
          | _ -> d.(Rng.int rng n)
        in
        G.Dijkstra.extend_toward r ~target ~below:bound;
        let reached = G.Dijkstra.is_settled r target in
        for v = 0 to n - 1 do
          let now = G.Dijkstra.is_settled r v in
          if now && (not before.(v)) && not (d.(v) < bound && ((not reached) || d.(v) <= d.(target)))
          then QCheck.Test.fail_reportf "step %d: node %d settled past the stop" step v;
          if (not now) && d.(v) < bound && ((not reached) || d.(v) < d.(target)) then
            QCheck.Test.fail_reportf "step %d: node %d left unsettled before the stop" step v
        done;
        check_final (Printf.sprintf "step %d" step)
      done;
      true)

(* Under a heuristic the frontier is ordered by g + h, which has no
   distance cut to stop at. *)
let test_extend_below_rejects_heuristic () =
  let g, _, _, _, _, _ = diamond () in
  let r = G.Dijkstra.run ~targets:[ 1 ] ~future_cost:(fun _ -> 0.) g ~src:0 in
  Alcotest.check_raises "goal-directed"
    (Invalid_argument "Dijkstra.extend_below: goal-directed search") (fun () ->
      G.Dijkstra.extend_below r 10.)

let test_dijkstra_stale_resume_rejected () =
  let g, e01, _, _, _, _ = diamond () in
  let r = G.Dijkstra.run ~targets:[ 1 ] g ~src:0 in
  G.Gstate.set_weight g e01 10.;
  Alcotest.check_raises "stale resume"
    (Invalid_argument "Dijkstra.extend: graph mutated since the run started") (fun () ->
      G.Dijkstra.extend r ~targets:[ 3 ])

(* Graph mutations must never surface stale distances: after a
   perturbation the old cache refuses, and a fresh one reads the exact
   distance. *)
let prop_cache_never_stale =
  QCheck.Test.make ~name:"version bumps never stale" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = 25 in
      let g = G.Random_graph.connected rng ~n ~m:(3 * n) ~wmin:0.5 ~wmax:4. in
      let c = ref (G.Dist_cache.create g) in
      for step = 0 to 49 do
        (* Occasionally perturb a weight: bumps the version unless the
           weight is unchanged. *)
        if step mod 7 = 3 then begin
          let v0 = G.Gstate.version g in
          let e = Rng.int rng (G.Gstate.num_edges g) in
          G.Gstate.set_weight g e (0.5 +. Rng.float rng 4.);
          if G.Gstate.version g <> v0 then begin
            (match G.Dist_cache.dist !c ~src:0 ~dst:(n - 1) with
            | _ -> QCheck.Test.fail_reportf "a cache answered after a mutation at step %d" step
            | exception Invalid_argument _ -> ());
            c := G.Dist_cache.create g
          end
        end;
        let src = Rng.int rng n and dst = Rng.int rng n in
        let got = G.Dist_cache.dist !c ~src ~dst in
        let want = G.Dijkstra.dist (G.Dijkstra.run g ~src) dst in
        if got <> want then
          QCheck.Test.fail_reportf "stale dist %d->%d at step %d" src dst step
      done;
      true)

let test_dist_cache_targeted_counters () =
  let g, e01, _, _, _, _ = diamond () in
  (* Targeted: a near target settles a prefix; full mode settles all 4. *)
  let ct = G.Dist_cache.create g in
  ignore (G.Dist_cache.dist ct ~src:0 ~dst:1);
  let partial = G.Dist_cache.settled_nodes ct in
  Alcotest.(check bool) "partial settle" true (partial < 4);
  let cf = G.Dist_cache.create ~targeted:false g in
  ignore (G.Dist_cache.dist cf ~src:0 ~dst:1);
  Alcotest.(check int) "full settle" 4 (G.Dist_cache.settled_nodes cf);
  (* A resume continues the source's one search. *)
  Alcotest.(check int) "one run" 1 (G.Dist_cache.runs ct);
  ignore (G.Dist_cache.dist ct ~src:0 ~dst:3);
  Alcotest.(check int) "still one run after a resume" 1 (G.Dist_cache.runs ct);
  (* The resumed entry's extra settling is accounted for. *)
  Alcotest.(check int) "resumed settle" 4 (G.Dist_cache.settled_nodes ct);
  (* A mutation ends the cache's lookups, not its counters. *)
  G.Gstate.set_weight g e01 10.;
  Alcotest.check_raises "refused after a mutation"
    (Invalid_argument "Dist_cache.dist: graph mutated since the cache was created") (fun () ->
      ignore (G.Dist_cache.dist ct ~src:0 ~dst:3));
  Alcotest.(check int) "counters survive" 4 (G.Dist_cache.settled_nodes ct)

(* Targeted and complete lookups of one source share one plain entry: the
   complete lookup resumes the targeted search instead of running its
   own. *)
let test_dist_cache_one_entry_per_source () =
  let g, _, _, _, _, _ = diamond () in
  let c = G.Dist_cache.create g in
  ignore (G.Dist_cache.result_for c ~src:0 ~targets:[ 3 ]);
  let r = G.Dist_cache.result c ~src:0 in
  Alcotest.(check int) "one run" 1 (G.Dist_cache.runs c);
  Alcotest.(check bool) "complete" true (G.Dijkstra.complete r);
  Alcotest.(check int) "plain" 0 (G.Dijkstra.future_cost_evals r)

(* ------------------------------------------------------------------ *)
(* Gstate journal                                                     *)
(* ------------------------------------------------------------------ *)

let test_gstate_checkpoint_basics () =
  let g = graph 3 [ (0, 1, 1.); (1, 2, 2.) ] in
  let v0 = G.Gstate.version g in
  (* No-op mutations (same value) write no journal entry and bump nothing. *)
  G.Gstate.set_weight g 0 1.;
  G.Gstate.add_weight g 1 0.;
  Alcotest.(check int) "no-op keeps version" v0 (G.Gstate.version g);
  Alcotest.(check int) "no-op keeps journal empty" 0 (G.Gstate.journal_depth g);
  let cp0 = G.Gstate.checkpoint g in
  G.Gstate.set_weight g 0 5.;
  G.Gstate.disable_node g 2;
  let cp1 = G.Gstate.checkpoint g in
  G.Gstate.disable_node g 0;
  Alcotest.(check int) "journal grows per mutation" 3 (G.Gstate.journal_depth g);
  G.Gstate.rollback g cp1;
  Alcotest.(check bool) "inner rollback re-enables node" true (G.Gstate.node_enabled g 0);
  Alcotest.(check (float 1e-9)) "outer span untouched" 5. (G.Gstate.weight g 0);
  G.Gstate.rollback g cp0;
  Alcotest.(check (float 1e-9)) "weight restored" 1. (G.Gstate.weight g 0);
  Alcotest.(check bool) "node restored" true (G.Gstate.node_enabled g 2);
  Alcotest.(check int) "journal drained" 0 (G.Gstate.journal_depth g);
  (* cp1 now points past the journal end: stale checkpoints are rejected. *)
  Alcotest.check_raises "stale checkpoint"
    (Invalid_argument "Gstate.rollback: invalid checkpoint") (fun () ->
      G.Gstate.rollback g cp1);
  (* commit keeps the new state but truncates the undo entries. *)
  let cp2 = G.Gstate.checkpoint g in
  G.Gstate.set_weight g 1 9.;
  G.Gstate.commit g cp2;
  Alcotest.(check (float 1e-9)) "committed weight sticks" 9. (G.Gstate.weight g 1);
  Alcotest.(check int) "commit truncates journal" 0 (G.Gstate.journal_depth g);
  Alcotest.(check bool) "counters tracked" true
    (G.Gstate.mutations g >= 4 && G.Gstate.rollbacks g = 2 && G.Gstate.peak_journal_depth g >= 3)

(* Random mutation sequences around a checkpoint: rollback must restore the
   exact observable state at the checkpoint, and the version counter must
   never decrease. *)
let prop_gstate_rollback_restores =
  QCheck.Test.make ~name:"Gstate rollback restores checkpoint state" ~count:100
    QCheck.(triple (int_range 0 1000) (int_range 0 30) (int_range 0 30))
    (fun (seed, n_before, n_after) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n:12 ~m:30 ~wmin:0.5 ~wmax:4. in
      let ne = G.Gstate.num_edges g and nn = G.Gstate.num_nodes g in
      let mutate () =
        match Rng.int rng 3 with
        | 0 -> G.Gstate.set_weight g (Rng.int rng ne) (Rng.float rng 5.)
        | 1 -> G.Gstate.add_weight g (Rng.int rng ne) (Rng.float rng 2.)
        | _ -> G.Gstate.disable_node g (Rng.int rng nn)
      in
      let snapshot () =
        (Array.init ne (G.Gstate.weight g), Array.init nn (G.Gstate.node_enabled g))
      in
      (* newest-first trace of every observed version *)
      let vers = ref [ G.Gstate.version g ] in
      let note () = vers := G.Gstate.version g :: !vers in
      for _ = 1 to n_before do
        mutate ();
        note ()
      done;
      let want = snapshot () in
      let cp = G.Gstate.checkpoint g in
      let depth_at_cp = G.Gstate.journal_depth g in
      for _ = 1 to n_after do
        mutate ();
        note ()
      done;
      G.Gstate.rollback g cp;
      note ();
      let restored = snapshot () = want in
      let depth_ok = G.Gstate.journal_depth g = depth_at_cp in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a >= b && monotone rest
        | _ -> true
      in
      (* the checkpoint survives a rollback: rolling back again is legal *)
      G.Gstate.rollback g cp;
      restored && depth_ok && monotone !vers && snapshot () = want)

(* A copy at a checkpoint holds the state at the checkpoint, bit for bit,
   and is independent: the parent's state, version and counters are
   untouched by making it and by writing to it, and the copy starts with
   an empty journal of its own.  A read-only view copies like its parent. *)
let prop_gstate_copy_at =
  QCheck.Test.make ~name:"Gstate copy_at is the checkpoint state, independent" ~count:100
    QCheck.(triple (int_range 0 1000) (int_range 0 30) (int_range 0 30))
    (fun (seed, n_before, n_after) ->
      let rng = Rng.make seed in
      let g = G.Random_graph.connected rng ~n:12 ~m:30 ~wmin:0.5 ~wmax:4. in
      let ne = G.Gstate.num_edges g and nn = G.Gstate.num_nodes g in
      let mutate g =
        match Rng.int rng 3 with
        | 0 -> G.Gstate.set_weight g (Rng.int rng ne) (Rng.float rng 5.)
        | 1 -> G.Gstate.add_weight g (Rng.int rng ne) (Rng.float rng 2.)
        | _ -> G.Gstate.disable_node g (Rng.int rng nn)
      in
      let snapshot g =
        (Array.init ne (G.Gstate.weight g), Array.init nn (G.Gstate.node_enabled g))
      in
      let meta g =
        (G.Gstate.version g, G.Gstate.journal_depth g, G.Gstate.mutations g, G.Gstate.rollbacks g)
      in
      for _ = 1 to n_before do
        mutate g
      done;
      let want = snapshot g in
      let cp = G.Gstate.checkpoint g in
      for _ = 1 to n_after do
        mutate g
      done;
      let live = snapshot g and live_meta = meta g in
      let copy = G.Gstate.copy_at g cp in
      let view_copy = G.Gstate.copy_at (G.Gstate.read_only_view g) cp in
      let fresh = meta copy = (0, 0, 0, 0) && not (G.Gstate.is_read_only view_copy) in
      let at_cp = snapshot copy = want && snapshot view_copy = want in
      for _ = 1 to 10 do
        mutate copy
      done;
      fresh && at_cp && snapshot g = live && meta g = live_meta)

(* Journal rollback across Cost_model.apply epoch boundaries: pricing
   writes are ordinary journaled mutations, so a checkpoint taken before a
   priced sequence restores the exact weight vector (and hence search
   results) no matter how many epochs the sequence crossed — and replaying
   the same sequence on a fresh graph reproduces the post-sequence weights
   bit-for-bit. *)
let prop_rollback_across_cost_epochs =
  QCheck.Test.make ~name:"rollback across Cost_model.apply epochs" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 1 12))
    (fun (seed, n_ops) ->
      let n = 15 in
      let build s =
        let rng = Rng.make s in
        G.Random_graph.connected rng ~n ~m:(3 * n) ~wmin:0.5 ~wmax:4.
      in
      let g = build seed in
      let ne = G.Gstate.num_edges g in
      (* Generate the op script as data so both runs see the same ops. *)
      let rng = Rng.make (seed + 7919) in
      let script =
        List.init n_ops (fun _ ->
            match Rng.int rng 3 with
            | 0 -> `Use (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n))
            | 1 -> `Escalate
            | _ -> `Apply)
        @ [ `Apply ] (* always cross at least one epoch boundary *)
      in
      let run g =
        let cm = G.Cost_model.create g in
        List.iter
          (function
            | `Use nodes -> G.Cost_model.use_nodes cm nodes
            | `Escalate -> G.Cost_model.escalate cm
            | `Apply -> G.Cost_model.apply cm)
          script;
        cm
      in
      let acct cm =
        (Array.init n (G.Cost_model.usage cm), Array.init n (G.Cost_model.history cm))
      in
      let w0 = Array.init ne (G.Gstate.weight g) in
      let dist0 = Array.init n (G.Dijkstra.dist (G.Dijkstra.run g ~src:0)) in
      let cp = G.Gstate.checkpoint g in
      let depth0 = G.Gstate.journal_depth g in
      let cm = run g in
      let w1 = Array.init ne (G.Gstate.weight g) in
      let acct1 = acct cm in
      G.Gstate.rollback g cp;
      let restored_w = Array.init ne (G.Gstate.weight g) = w0 in
      let restored_d = Array.init n (G.Dijkstra.dist (G.Dijkstra.run g ~src:0)) = dist0 in
      (* Rollback touches only the graph: the model's accounting is not
         journaled state and must be exactly what the sequence left. *)
      let acct_kept = acct cm = acct1 in
      let g2 = build seed in
      let cm2 = run g2 in
      let replayed = Array.init (G.Gstate.num_edges g2) (G.Gstate.weight g2) = w1 in
      let replayed_acct = acct cm2 = acct1 in
      restored_w && restored_d && acct_kept
      && G.Gstate.journal_depth g = depth0
      && replayed && replayed_acct)

let () =
  Alcotest.run "fr_graph"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "strict (prio, tie, seq) order" `Quick test_heap_two_key_order;
          Alcotest.test_case "empty/clear" `Quick test_heap_empty;
          Alcotest.test_case "growth past capacity" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_interleaved;
        ] );
      ( "gstate",
        [
          Alcotest.test_case "checkpoint/rollback/commit" `Quick test_gstate_checkpoint_basics;
          QCheck_alcotest.to_alcotest prop_gstate_rollback_restores;
          QCheck_alcotest.to_alcotest prop_rollback_across_cost_epochs;
          QCheck_alcotest.to_alcotest prop_gstate_copy_at;
        ] );
      ("dsu", [ Alcotest.test_case "union/find" `Quick test_dsu ]);
      ( "wgraph",
        [
          Alcotest.test_case "basics" `Quick test_wgraph_basic;
          Alcotest.test_case "rejects bad edges" `Quick test_wgraph_rejects;
          Alcotest.test_case "disable/enable" `Quick test_wgraph_disable;
          Alcotest.test_case "versioning & weights" `Quick test_wgraph_version_and_weights;
          Alcotest.test_case "edge store grows past capacity" `Quick test_wgraph_edge_store_grows;
          Alcotest.test_case "mean edge weight" `Quick test_mean_edge_weight;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "detour around disabled" `Quick test_dijkstra_disabled_detour;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "restrict" `Quick test_dijkstra_restrict;
          Alcotest.test_case "edge_ok" `Quick test_dijkstra_edge_ok;
          Alcotest.test_case "spt edges" `Quick test_dijkstra_spt_edges;
          Alcotest.test_case "lazy extension" `Quick test_dijkstra_lazy_extension;
          Alcotest.test_case "stale resume rejected" `Quick test_dijkstra_stale_resume_rejected;
          QCheck_alcotest.to_alcotest prop_dijkstra_matches_floyd_warshall;
          QCheck_alcotest.to_alcotest prop_dijkstra_path_cost_consistent;
          QCheck_alcotest.to_alcotest prop_targeted_equals_full;
          QCheck_alcotest.to_alcotest prop_astar_matches_plain;
          QCheck_alcotest.to_alcotest prop_dijkstra_stop_rule;
          QCheck_alcotest.to_alcotest prop_frontier_matches_lazy_reference;
          QCheck_alcotest.to_alcotest prop_extend_below_matches_reference;
          QCheck_alcotest.to_alcotest prop_extend_toward_and_is_final;
          Alcotest.test_case "extend_below rejects a heuristic" `Quick
            test_extend_below_rejects_heuristic;
        ]
        @ List.map
            (fun ((name, _) as accessor) ->
              Alcotest.test_case (name ^ " rejects an out-of-range node") `Quick
                (test_dijkstra_node_range accessor))
            dijkstra_accessors );
      ( "mst",
        [
          Alcotest.test_case "prim triangle" `Quick test_prim_dense_triangle;
          Alcotest.test_case "prim trivial" `Quick test_prim_dense_trivial;
          Alcotest.test_case "prim disconnected" `Quick test_prim_dense_disconnected;
          Alcotest.test_case "kruskal basic" `Quick test_kruskal_basic;
          Alcotest.test_case "kruskal disconnected" `Quick test_kruskal_disconnected;
          QCheck_alcotest.to_alcotest prop_prim_matches_kruskal;
          QCheck_alcotest.to_alcotest prop_prim_searches_matches_dense;
          Alcotest.test_case "prim over searches, trivial" `Quick test_prim_searches_trivial;
        ] );
      ( "tree",
        [
          Alcotest.test_case "metrics" `Quick test_tree_metrics;
          Alcotest.test_case "cycle detection" `Quick test_tree_cycle_detection;
          Alcotest.test_case "disconnected" `Quick test_tree_disconnected;
          Alcotest.test_case "prune" `Quick test_tree_prune;
          Alcotest.test_case "prune cascade" `Quick test_tree_prune_cascade;
          Alcotest.test_case "empty tree" `Quick test_tree_empty;
        ] );
      ( "grid",
        [
          Alcotest.test_case "structure" `Quick test_grid_structure;
          Alcotest.test_case "rectilinear distances (Fig 3a)" `Quick
            test_grid_distances_rectilinear;
          Alcotest.test_case "edge lookup" `Quick test_grid_edge_lookup;
          Alcotest.test_case "bad args" `Quick test_grid_bad_args;
        ] );
      ( "random_graph",
        [
          Alcotest.test_case "connected" `Quick test_random_graph_connected;
          Alcotest.test_case "random net" `Quick test_random_net;
        ] );
      ( "dist_cache",
        [
          Alcotest.test_case "memoizes" `Quick test_dist_cache_memoizes;
          Alcotest.test_case "invalidation" `Quick test_dist_cache_invalidation;
          Alcotest.test_case "symmetric lookups" `Quick test_dist_cache_sym;
          Alcotest.test_case "targeted counters" `Quick test_dist_cache_targeted_counters;
          Alcotest.test_case "one entry per source" `Quick test_dist_cache_one_entry_per_source;
          QCheck_alcotest.to_alcotest prop_cache_never_stale;
        ]
        @ List.map
            (fun ((entry, _) as lookup) ->
              Alcotest.test_case
                (entry ^ " refuses a mutated graph")
                `Quick
                (test_dist_cache_refuses_mutated lookup))
            dist_cache_lookups );
    ]
