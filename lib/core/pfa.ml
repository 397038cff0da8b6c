module G = Fr_graph

(* One folding pass: returns the accumulated member set M (terminals plus
   MaxDom merge points). *)
let fold_members ?steiner_candidates cache ~net =
  let source = net.Net.source in
  let rsrc = G.Dist_cache.result_for cache ~src:source ~targets:net.Net.sinks in
  List.iter
    (fun s -> if not (G.Dijkstra.reachable rsrc s) then Routing_err.fail "PFA")
    net.Net.sinks;
  (* The merge-point candidates, sorted once per net for every pair of
     every folding round. *)
  let scan = Option.map (fun cs -> List.sort_uniq Int.compare (source :: cs)) steiner_candidates in
  let active = ref (List.sort_uniq Int.compare (Net.terminals net)) in
  (* [members] keeps the paper's accumulation order (merge points prepended
     to the sorted terminals); [member_set] makes the dedup probe O(1). *)
  let member_set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) !active;
  let members = ref !active in
  while List.length !active > 1 do
    (* Find the pair {p,q} whose MaxDom is farthest from the source. *)
    let best = ref None in
    let consider p q =
      match Dominance.max_dom ?scan cache ~source ~p ~q with
      | None -> ()
      | Some (m, d) -> (
          match !best with
          | Some (_, _, _, d') when d' >= d -> ()
          | _ -> best := Some (p, q, m, d))
    in
    let rec pairs = function
      | [] -> ()
      | p :: rest ->
          List.iter (fun q -> consider p q) rest;
          pairs rest
    in
    pairs !active;
    match !best with
    | None -> Routing_err.fail "PFA"
    | Some (p, q, m, _) ->
        active := List.sort_uniq Int.compare (m :: List.filter (fun x -> x <> p && x <> q) !active);
        if not (Hashtbl.mem member_set m) then begin
          Hashtbl.replace member_set m ();
          members := m :: !members
        end
  done;
  (* With strictly positive weights the last active node is the source. *)
  !members

let solve ?steiner_candidates cache ~net =
  let members = fold_members ?steiner_candidates cache ~net in
  Dominance.fold_tree cache ~source:net.Net.source ~members ~keep:(Net.terminals net)
