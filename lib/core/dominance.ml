module G = Fr_graph

let tol = 1e-9

let dominates_via ~source_dist ~p_dist ~p ~s =
  let dp = source_dist p and ds = source_dist s and dsp = p_dist s in
  dp < infinity && ds < infinity && dsp < infinity
  && Float.abs (dp -. (ds +. dsp)) <= tol *. (1. +. Float.abs dp) +. tol

let max_dom ?scan cache ~source ~p ~q =
  let g = G.Dist_cache.graph cache in
  (* With a scan list the scan (and therefore the Dijkstra settling) is
     bounded to those nodes; otherwise every node is examined and the
     per-source results must be complete. *)
  let rsrc, rp, rq =
    match scan with
    | None ->
        ( G.Dist_cache.result cache ~src:source,
          G.Dist_cache.result cache ~src:p,
          G.Dist_cache.result cache ~src:q )
    | Some scan ->
        let targets = p :: q :: scan in
        ( G.Dist_cache.result_for cache ~src:source ~targets,
          G.Dist_cache.result_for cache ~src:p ~targets,
          G.Dist_cache.result_for cache ~src:q ~targets )
  in
  let sd = G.Dijkstra.dist rsrc in
  let pd = G.Dijkstra.dist rp in
  let qd = G.Dijkstra.dist rq in
  let sdp = sd p and sdq = sd q in
  if sdp = infinity || sdq = infinity then None
  else begin
    let best = ref (-1) and best_d = ref neg_infinity in
    let consider m =
      if
        G.Gstate.node_enabled g m
        && dominates_via ~source_dist:sd ~p_dist:pd ~p ~s:m
        && dominates_via ~source_dist:sd ~p_dist:qd ~p:q ~s:m
        && sd m > !best_d
      then begin
        best := m;
        best_d := sd m
      end
    in
    (match scan with
    | None ->
        for m = 0 to G.Gstate.num_nodes g - 1 do
          consider m
        done
    | Some ms -> List.iter consider ms);
    if !best < 0 then None else Some (!best, !best_d)
  end

let nearest_dominated cache ~source ~members ~p =
  if p = source then None
  else begin
    let rsrc = G.Dist_cache.result_for cache ~src:source ~targets:(p :: members) in
    let sd = G.Dijkstra.dist rsrc in
    (* Distances between p and candidate parents are served from whichever
       side is memoized, so scanning a *candidate* p (IDOM's Δ-loop) costs
       no Dijkstra from p. *)
    let pd s = G.Dist_cache.dist_sym cache s p in
    let sdp = sd p in
    if sdp = infinity then None
    else begin
      let better (s, d) = function
        | None -> true
        | Some (s', d') ->
            d < d' -. tol || (d <= d' +. tol && (sd s < sd s' -. tol || (sd s <= sd s' +. tol && s < s')))
      in
      List.fold_left
        (fun acc s ->
          if s <> p && dominates_via ~source_dist:sd ~p_dist:pd ~p ~s then begin
            let d = pd s in
            if better (s, d) acc then Some (s, d) else acc
          end
          else acc)
        None members
    end
  end

let fold_tree cache ~source ~members ~keep =
  let g = G.Dist_cache.graph cache in
  let members = List.sort_uniq Int.compare members in
  let rsrc = G.Dist_cache.result_for cache ~src:source ~targets:members in
  List.iter
    (fun m -> if not (G.Dijkstra.reachable rsrc m) then Routing_err.fail "fold_tree")
    members;
  (* Union of the shortest paths from each member to its chosen parent. *)
  let union = Hashtbl.create 256 in
  List.iter
    (fun p ->
      if p <> source then begin
        match nearest_dominated cache ~source ~members ~p with
        | None -> Routing_err.fail "fold_tree"
        | Some (s, _) ->
            List.iter (fun e -> Hashtbl.replace union e ()) (G.Dist_cache.path_edges_sym cache p s)
      end)
    members;
  (* Shortest-paths tree within the union subgraph, then prune. *)
  let spt = G.Dijkstra.run ~edge_ok:(Hashtbl.mem union) g ~src:source in
  List.iter
    (fun m -> if not (G.Dijkstra.reachable spt m) then Routing_err.fail "fold_tree")
    members;
  let tree = G.Tree.of_edges (G.Dijkstra.spt_edges spt) in
  G.Tree.prune g tree ~keep
