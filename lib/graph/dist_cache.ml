(* Entries live in one table keyed by source: a complete ([targets =
   None]) lookup and a targeted one of the same source resume the same
   plain search, so full-distance-array consumers (ZEL/DJKA/BRBC/
   dominance/eval) read exact distances, and {!settle_below} always finds
   the distance-ordered frontier it needs.  Entries are never dropped, so
   the table holds one entry per search the cache ran. *)
type t = {
  g : Gstate.t;
  restrict : Fr_util.Bitset.t option;
  targeted : bool;
  table : (int, Dijkstra.result) Hashtbl.t;
  stamp : int;  (* the graph's version at creation *)
}

let create ?restrict ?(targeted = true) g =
  { g; restrict; targeted; table = Hashtbl.create 16; stamp = Gstate.version g }

let graph t = t.g

(* A cache serves the graph state it was created on. *)
let check t entry =
  if not (Int.equal (Gstate.version t.g) t.stamp) then
    invalid_arg ("Dist_cache." ^ entry ^ ": graph mutated since the cache was created")

(* Look up (or run) the per-source result, bounded to [targets] when the
   cache is in targeted mode; [targets = None] demands a complete
   result. *)
let lookup t ~src ~targets =
  let targets = if t.targeted then targets else None in
  match Hashtbl.find_opt t.table src with
  | Some res ->
      (match targets with
      | None -> Dijkstra.extend_all res
      | Some ts -> Dijkstra.extend res ~targets:ts);
      res
  | None ->
      let res = Dijkstra.run ?restrict:t.restrict ?targets t.g ~src in
      Hashtbl.add t.table src res;
      res

let result t ~src =
  check t "result";
  lookup t ~src ~targets:None

let result_for t ~src ~targets =
  check t "result_for";
  lookup t ~src ~targets:(Some targets)

let settle_below t ~src bound =
  check t "settle_below";
  Dijkstra.extend_below (lookup t ~src ~targets:(Some [])) bound

let dist t ~src ~dst =
  check t "dist";
  Dijkstra.dist (lookup t ~src ~targets:(Some [ dst ])) dst

let cached t src =
  check t "cached";
  Hashtbl.mem t.table src

(* The graph is undirected: search from whichever endpoint has an entry.
   The callers have checked the version, so [cached] never raises here. *)
let pick_cached_side t a b = if cached t a then (a, b) else if cached t b then (b, a) else (a, b)

let search_sym t a b =
  check t "search_sym";
  let src, _ = pick_cached_side t a b in
  lookup t ~src ~targets:(Some [])

let dist_sym t a b =
  check t "dist_sym";
  let src, dst = pick_cached_side t a b in
  dist t ~src ~dst

let path_edges_sym t a b =
  check t "path_edges_sym";
  let src, dst = pick_cached_side t a b in
  Dijkstra.path_edges (lookup t ~src ~targets:(Some [ dst ])) dst

let runs t = Hashtbl.length t.table

let settled_nodes t = Hashtbl.fold (fun _ res acc -> acc + Dijkstra.settled_count res) t.table 0
