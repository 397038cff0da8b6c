(* Entries live in one table keyed by source: a complete ([targets =
   None]) lookup and a targeted one of the same source resume the same
   plain search, so full-distance-array consumers (ZEL/DJKA/BRBC/
   dominance/eval) read exact distances, and {!settle_below} always finds
   the distance-ordered frontier it needs. *)
type t = {
  g : Gstate.t;
  restrict : Fr_util.Bitset.t option;
  targeted : bool;
  table : (int, Dijkstra.result) Hashtbl.t;
  mutable stamp : int;
  (* Monotone lifetime counters; survive version drops. *)
  mutable runs : int;
  mutable hits : int;
  mutable misses : int;
  mutable settled_gone : int;  (* settled nodes of dropped entries *)
}

let create ?restrict ?(targeted = true) g =
  {
    g;
    restrict;
    targeted;
    table = Hashtbl.create 16;
    stamp = Gstate.version g;
    runs = 0;
    hits = 0;
    misses = 0;
    settled_gone = 0;
  }

let graph t = t.g

(* A graph mutation since the entries were made drops them all. *)
let refresh t =
  let ver = Gstate.version t.g in
  if ver <> t.stamp then begin
    Hashtbl.iter
      (fun _ res -> t.settled_gone <- t.settled_gone + Dijkstra.settled_count res)
      t.table;
    Hashtbl.reset t.table;
    t.stamp <- ver
  end

(* Look up (or run) the per-source result, bounded to [targets] when the
   cache is in targeted mode; [targets = None] demands a complete
   result. *)
let lookup t ~src ~targets =
  refresh t;
  let targets = if t.targeted then targets else None in
  match Hashtbl.find_opt t.table src with
  | Some res ->
      t.hits <- t.hits + 1;
      (match targets with
      | None -> Dijkstra.extend_all res
      | Some ts -> Dijkstra.extend res ~targets:ts);
      res
  | None ->
      t.misses <- t.misses + 1;
      let res = Dijkstra.run ?restrict:t.restrict ?targets t.g ~src in
      t.runs <- t.runs + 1;
      Hashtbl.add t.table src res;
      res

let result t ~src = lookup t ~src ~targets:None

let result_for t ~src ~targets = lookup t ~src ~targets:(Some targets)

let settle_below t ~src bound = Dijkstra.extend_below (result_for t ~src ~targets:[]) bound

let dist t ~src ~dst = Dijkstra.dist (result_for t ~src ~targets:[ dst ]) dst

let path_edges t ~src ~dst = Dijkstra.path_edges (result_for t ~src ~targets:[ dst ]) dst

let cached t src =
  refresh t;
  Hashtbl.mem t.table src

let pick_cached_side t a b = if cached t a then (a, b) else if cached t b then (b, a) else (a, b)

let dist_sym t a b =
  let src, dst = pick_cached_side t a b in
  dist t ~src ~dst

let path_edges_sym t a b =
  let src, dst = pick_cached_side t a b in
  path_edges t ~src ~dst

let runs t = t.runs

let hits t = t.hits

let misses t = t.misses

let settled_nodes t =
  Hashtbl.fold (fun _ res acc -> acc + Dijkstra.settled_count res) t.table t.settled_gone
