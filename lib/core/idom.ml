module G = Fr_graph

let improvement_eps = 1e-7

(* The Fig 12 loop; returns (S in acceptance order, cost trace).

   Δ-scan datapath: with the per-member Dijkstra arrays prefetched, a
   candidate [t] is evaluated in O(k): each existing sink can only improve
   by re-parenting onto [t] (its other options are unchanged), and [t]
   itself picks its cheapest dominated member — the "combining common
   computations" the paper prescribes for IDOM's complexity.

   Every distance the scan reads lands on a member or a candidate, so the
   per-source queries are target-bounded to that set: on a bbox-restricted
   routing graph the searches stop long before settling the whole graph. *)
let grow ?candidates cache ~net =
  let g = G.Dist_cache.graph cache in
  let source = net.Net.source in
  let terminals = Net.terminals net in
  let in_net = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace in_net t ()) terminals;
  let all_candidates =
    match candidates with
    | Some c -> List.filter (fun t -> not (Hashtbl.mem in_net t)) c
    | None -> Igmst.default_candidates g terminals
  in
  let sd =
    (G.Dist_cache.result_for cache ~src:source
       ~targets:(List.rev_append terminals all_candidates))
      .G.Dijkstra.dist
  in
  if List.exists (fun s -> sd.(s) = infinity) net.Net.sinks then Routing_err.fail "IDOM";
  let dominates ~p ~s ~dist_sp =
    let dp = sd.(p) and ds = sd.(s) in
    dp < infinity && ds < infinity && dist_sp < infinity
    && Float.abs (dp -. (ds +. dist_sp)) <= (Dominance.tol *. (1. +. Float.abs dp)) +. Dominance.tol
  in
  let in_s = Hashtbl.create 16 in
  (* members = source :: sinks-so-far (terminals' sinks ++ accepted S). *)
  let rec iterate s trace =
    let sinks = List.rev_append s net.Net.sinks in
    let members = Array.of_list (source :: sinks) in
    let k = Array.length members in
    let targets = Array.fold_left (fun acc m -> m :: acc) all_candidates members in
    let arr =
      Array.map
        (fun m -> (G.Dist_cache.result_for cache ~src:m ~targets).G.Dijkstra.dist)
        members
    in
    (* Best current parent cost for each sink member (index >= 1 in
       [members]); the source connects to nothing. *)
    let best_parent = Array.make k 0. in
    for i = 1 to k - 1 do
      let p = members.(i) in
      let best = ref infinity in
      for j = 0 to k - 1 do
        if j <> i then begin
          let sN = members.(j) in
          let d = arr.(j).(p) in
          if dominates ~p ~s:sN ~dist_sp:d && d < !best then best := d
        end
      done;
      best_parent.(i) <- !best
    done;
    let base = Array.fold_left ( +. ) 0. best_parent in
    if base = infinity then Routing_err.fail "IDOM";
    let eval t =
      (* t's own parent: cheapest member it dominates. *)
      let own = ref infinity in
      for j = 0 to k - 1 do
        let d = arr.(j).(t) in
        if dominates ~p:t ~s:members.(j) ~dist_sp:d && d < !own then own := d
      done;
      if !own = infinity then infinity
      else begin
        (* existing sinks may re-parent onto t *)
        let total = ref !own in
        for i = 1 to k - 1 do
          let p = members.(i) in
          let via_t =
            let d = arr.(i).(t) in
            (* dist(t, p) read from p's array at t; dominance: p dominates t *)
            if dominates ~p ~s:t ~dist_sp:d then d else infinity
          in
          total := !total +. min best_parent.(i) via_t
        done;
        !total
      end
    in
    let best_t = ref (-1) and best_cost = ref base in
    List.iter
      (fun t ->
        if not (Hashtbl.mem in_s t) then begin
          let c = eval t in
          if c < !best_cost -. improvement_eps then begin
            best_cost := c;
            best_t := t
          end
        end)
      all_candidates;
    if !best_t < 0 then (List.rev s, List.rev (base :: trace))
    else begin
      Hashtbl.replace in_s !best_t ();
      iterate (!best_t :: s) (base :: trace)
    end
  in
  iterate [] []

let steiner_nodes ?candidates cache ~net = fst (grow ?candidates cache ~net)

let distance_graph_cost_trace ?candidates cache ~net = snd (grow ?candidates cache ~net)

let solve ?candidates cache ~net =
  let s, _ = grow ?candidates cache ~net in
  let members = Net.terminals net @ s in
  Dominance.fold_tree cache ~source:net.Net.source ~members ~keep:(Net.terminals net)
