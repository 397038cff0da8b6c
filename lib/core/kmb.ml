module G = Fr_graph

let solve cache ~terminals =
  let g = G.Dist_cache.graph cache in
  let ts = Array.of_list (List.sort_uniq Int.compare terminals) in
  let k = Array.length ts in
  if k <= 1 then G.Tree.empty
  else begin
    (* 1-2. MST of the distance graph over terminals, each pair read
       from the search [dist_sym] would use, settled only as far as the
       MST needs. *)
    let search i j = G.Dist_cache.search_sym cache ts.(i) ts.(j) in
    let mst_edges, mst_cost, _ = G.Mst.prim_searches ~nodes:ts ~search in
    if mst_cost = infinity then Routing_err.fail "KMB";
    (* 3. Expand each distance-graph edge into a shortest path of G. *)
    let expanded =
      List.concat_map (fun (i, j) -> G.Dist_cache.path_edges_sym cache ts.(i) ts.(j)) mst_edges
      |> List.sort_uniq Int.compare
    in
    (* 4. MST of the expanded subgraph. *)
    let sub_edges =
      List.map
        (fun e ->
          let u, v = G.Gstate.endpoints g e in
          (u, v, G.Gstate.weight g e, e))
        expanded
    in
    let chosen, sub_cost = G.Mst.kruskal ~nodes:(Array.to_list ts) ~edges:sub_edges in
    if sub_cost = infinity then Routing_err.fail "KMB";
    (* 5. Prune non-terminal pendant leaves. *)
    let tree = G.Tree.of_edges (List.map (fun (_, _, _, e) -> e) chosen) in
    G.Tree.prune g tree ~keep:(Array.to_list ts)
  end

let cost cache ~terminals = G.Tree.cost (G.Dist_cache.graph cache) (solve cache ~terminals)
