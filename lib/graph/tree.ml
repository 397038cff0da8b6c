type t = { edges : Gstate.edge list }

let of_edges edges = { edges = List.sort_uniq Int.compare edges }

let empty = { edges = [] }

let cost g t = List.fold_left (fun acc e -> acc +. Gstate.weight g e) 0. t.edges

(* Distinct nodes touched by the tree, as a hash set: O(edges) to build and
   O(1) per membership probe, so callers never pay a linear scan. *)
let node_set g t =
  let tbl = Hashtbl.create ((2 * List.length t.edges) + 1) in
  List.iter
    (fun e ->
      let u, v = Gstate.endpoints g e in
      Hashtbl.replace tbl u ();
      Hashtbl.replace tbl v ())
    t.edges;
  tbl

let nodes g t =
  Hashtbl.fold (fun v () acc -> v :: acc) (node_set g t) [] |> List.sort Int.compare

(* Adjacency of the tree as an association table: node -> (edge, nbr). *)
let adjacency g t =
  let tbl = Hashtbl.create (2 * List.length t.edges) in
  let add u x =
    let cur = try Hashtbl.find tbl u with Not_found -> [] in
    Hashtbl.replace tbl u (x :: cur)
  in
  List.iter
    (fun e ->
      let u, v = Gstate.endpoints g e in
      add u (e, v);
      add v (e, u))
    t.edges;
  tbl

let is_tree g t =
  let ns = node_set g t in
  let n = Hashtbl.length ns in
  if n = 0 then true
  else
    let m = List.length t.edges in
    if m <> n - 1 then false
    else begin
      (* Acyclicity follows from |E| = |V|-1 + connectivity; check
         connectivity by traversal. *)
      let adj = adjacency g t in
      let seen = Hashtbl.create n in
      let rec dfs u =
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.add seen u ();
          List.iter (fun (_, v) -> dfs v) (try Hashtbl.find adj u with Not_found -> [])
        end
      in
      (match t.edges with
      | [] -> ()
      | e :: _ ->
          let root, _ = Gstate.endpoints g e in
          dfs root);
      let reached = Hashtbl.length seen in
      reached = n
    end

let spans g t terminals =
  match (terminals, t.edges) with
  | [], _ -> true
  | [ _ ], [] -> true
  | _ ->
      let ns = node_set g t in
      List.for_all (fun x -> Hashtbl.mem ns x) terminals

let uses_only_enabled g t =
  List.for_all
    (fun e ->
      let u, v = Gstate.endpoints g e in
      Gstate.node_enabled g u && Gstate.node_enabled g v)
    t.edges

(* The one pathlength traversal; [what] names the public entry point so a
   raised Invalid_argument points at the real caller.  The recursion is as
   deep as the tree: OCaml 5 grows the stack on demand, so even
   path-shaped trees of millions of nodes are fine. *)
let distances ~weight g t ~src ~what =
  let adj = adjacency g t in
  if (not (Hashtbl.mem adj src)) && t.edges <> [] then
    invalid_arg ("Tree." ^ what ^ ": source not in tree");
  let dist = Hashtbl.create 64 in
  let rec dfs u d =
    Hashtbl.replace dist u d;
    List.iter
      (fun (e, v) -> if not (Hashtbl.mem dist v) then dfs v (d +. weight e))
      (try Hashtbl.find adj u with Not_found -> [])
  in
  dfs src 0.;
  dist

let path_table g t ~src = distances ~weight:(Gstate.weight g) g t ~src ~what:"path_table"

let max_path_length ~weight g t ~src ~sinks =
  let dist = distances ~weight g t ~src ~what:"max_path_length" in
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt dist s with
      | Some d -> Float.max acc d
      | None ->
          (* A committed tree must span every sink; skipping one would
             under-report pathlength. *)
          invalid_arg (Printf.sprintf "Tree.max_path_length: sink %d not in tree" s))
    0. sinks

let prune g t ~keep =
  let keep_tbl = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace keep_tbl v ()) keep;
  let rec go edges =
    let deg = Hashtbl.create 64 in
    let bump u = Hashtbl.replace deg u (1 + try Hashtbl.find deg u with Not_found -> 0) in
    List.iter
      (fun e ->
        let u, v = Gstate.endpoints g e in
        bump u;
        bump v)
      edges;
    let is_prunable_leaf u = (not (Hashtbl.mem keep_tbl u)) && Hashtbl.find deg u = 1 in
    let edges' =
      List.filter
        (fun e ->
          let u, v = Gstate.endpoints g e in
          not (is_prunable_leaf u || is_prunable_leaf v))
        edges
    in
    let kept = List.length edges' and before = List.length edges in
    if kept = before then edges else go edges'
  in
  { edges = go t.edges }
