module G = Fr_graph

(* Multi-source Dijkstra: every terminal starts at distance 0; [owner]
   records which terminal's wave reached each node first. *)
let voronoi g ~terminals =
  let n = G.Gstate.num_nodes g in
  let dist = Array.make n infinity in
  let owner = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = G.Heap.create ~capacity:(2 * n) () in
  List.iter
    (fun t ->
      dist.(t) <- 0.;
      owner.(t) <- t;
      G.Heap.push heap 0. 0. t)
    terminals;
  while not (G.Heap.is_empty heap) do
    let u = G.Heap.pop heap in
    if not settled.(u) then begin
      settled.(u) <- true;
      (* The first pop of u carries its final distance. *)
      let d = dist.(u) in
      G.Gstate.iter_adj g u (fun e v w ->
          if (not settled.(v)) && d +. w < dist.(v) then begin
            dist.(v) <- d +. w;
            owner.(v) <- owner.(u);
            parent_edge.(v) <- e;
            G.Heap.push heap dist.(v) 0. v
          end)
    end
  done;
  (owner, dist, parent_edge)

let path_to_owner g parent_edge u =
  (* Edges from u back to its region's terminal. *)
  let rec up u acc =
    let e = parent_edge.(u) in
    if e < 0 then acc else up (G.Gstate.other_end g e u) (e :: acc)
  in
  up u []

let solve g ~terminals =
  let ts = List.sort_uniq Int.compare terminals in
  match ts with
  | [] | [ _ ] -> G.Tree.empty
  | _ ->
      let owner, dist, parent_edge = voronoi g ~terminals:ts in
      (* Best bridge between each pair of adjacent regions. *)
      let bridges = Hashtbl.create 64 in
      G.Gstate.iter_edges g (fun e u v w ->
          let su = owner.(u) and sv = owner.(v) in
          if su >= 0 && sv >= 0 && su <> sv then begin
            let key = if su < sv then (su, sv) else (sv, su) in
            let len = dist.(u) +. w +. dist.(v) in
            match Hashtbl.find_opt bridges key with
            | Some (best, _, _) when best <= len -> ()
            | _ -> Hashtbl.replace bridges key (len, e, (u, v))
          end);
      let edges =
        Hashtbl.fold
          (fun (su, sv) (len, e, _) acc -> (su, sv, len, e) :: acc)
          bridges []
      in
      let chosen, cost = G.Mst.kruskal ~nodes:ts ~edges in
      if cost = infinity then Routing_err.fail "Mehlhorn";
      (* Expand each chosen bridge into real graph edges. *)
      let expanded =
        List.concat_map
          (fun (_, _, _, e) ->
            let u, v = G.Gstate.endpoints g e in
            (e :: path_to_owner g parent_edge u) @ path_to_owner g parent_edge v)
          chosen
        |> List.sort_uniq Int.compare
      in
      let sub_edges =
        List.map
          (fun e ->
            let u, v = G.Gstate.endpoints g e in
            (u, v, G.Gstate.weight g e, e))
          expanded
      in
      let chosen', cost' = G.Mst.kruskal ~nodes:ts ~edges:sub_edges in
      if cost' = infinity then Routing_err.fail "Mehlhorn";
      G.Tree.prune g (G.Tree.of_edges (List.map (fun (_, _, _, e) -> e) chosen')) ~keep:ts

let voronoi g ~terminals =
  let owner, dist, _ = voronoi g ~terminals in
  (owner, dist)
