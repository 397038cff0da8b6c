(* Entries live in two tables keyed by source.  [directed] holds the
   targeted lookups' frontiers, opened under the cache's future-cost
   bound; [plain] holds everything else: the complete ([targets = None])
   lookups, which bypass the bound so full-distance-array consumers
   (ZEL/DJKA/BRBC/dominance/eval) always see plain Dijkstra, the plain
   targeted lookups ({!plain_for}) and {!settle_below}, which need a
   distance-ordered frontier, and every lookup of a cache created without
   a bound.  The bound is fixed at creation, so a frontier is only ever
   resumed under the h it was opened with. *)
type t = {
  g : Gstate.t;
  restrict : Fr_util.Bitset.t option;
  future : (int -> float) option;
  targeted : bool;
  plain : (int, Dijkstra.result) Hashtbl.t;
  directed : (int, Dijkstra.result) Hashtbl.t;
  mutable stamp : int;
  (* Monotone lifetime counters; survive version drops. *)
  mutable runs : int;
  mutable hits : int;
  mutable misses : int;
  mutable settled_gone : int;  (* settled nodes of dropped entries *)
  mutable h_evals_gone : int;  (* future-cost evals of dropped entries *)
}

let create ?restrict ?future_cost ?(targeted = true) g =
  {
    g;
    restrict;
    future = future_cost;
    targeted;
    plain = Hashtbl.create 16;
    directed = Hashtbl.create 16;
    stamp = Gstate.version g;
    runs = 0;
    hits = 0;
    misses = 0;
    settled_gone = 0;
    h_evals_gone = 0;
  }

let graph t = t.g

let drop_table t table =
  Hashtbl.iter
    (fun _ res ->
      t.settled_gone <- t.settled_gone + Dijkstra.settled_count res;
      t.h_evals_gone <- t.h_evals_gone + Dijkstra.future_cost_evals res)
    table;
  Hashtbl.reset table

(* A graph mutation since the entries were made drops them all. *)
let refresh t =
  let ver = Gstate.version t.g in
  if ver <> t.stamp then begin
    drop_table t t.plain;
    drop_table t t.directed;
    t.stamp <- ver
  end

(* Look up (or run) the per-source result, bounded to [targets] when the
   cache is in targeted mode.  Only a [directed] lookup that stays
   targeted runs under the cache's bound, if it has one; [targets = None]
   demands a complete result and always runs plain. *)
let lookup t ~src ~targets ~directed =
  refresh t;
  let targets = if t.targeted then targets else None in
  let directed = directed && Option.is_some targets && Option.is_some t.future in
  let table = if directed then t.directed else t.plain in
  match Hashtbl.find_opt table src with
  | Some res ->
      t.hits <- t.hits + 1;
      (match targets with
      | None -> Dijkstra.extend_all res
      | Some ts -> Dijkstra.extend res ~targets:ts);
      res
  | None ->
      t.misses <- t.misses + 1;
      let future_cost = if directed then t.future else None in
      let res = Dijkstra.run ?restrict:t.restrict ?targets ?future_cost t.g ~src in
      t.runs <- t.runs + 1;
      Hashtbl.add table src res;
      res

let result t ~src = lookup t ~src ~targets:None ~directed:false

let result_for t ~src ~targets = lookup t ~src ~targets:(Some targets) ~directed:true

let plain_for t ~src ~targets = lookup t ~src ~targets:(Some targets) ~directed:false

let settle_below t ~src bound = Dijkstra.extend_below (plain_for t ~src ~targets:[]) bound

let dist t ~src ~dst = Dijkstra.dist (result_for t ~src ~targets:[ dst ]) dst

let path_edges t ~src ~dst = Dijkstra.path_edges (result_for t ~src ~targets:[ dst ]) dst

(* "Cached" means: the entry the next targeted lookup would use is live. *)
let cached t src =
  refresh t;
  Hashtbl.mem (if t.targeted && Option.is_some t.future then t.directed else t.plain) src

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

let live_sum t f =
  let sum table acc = Hashtbl.fold (fun _ res acc -> acc + f res) table acc in
  sum t.plain (sum t.directed 0)

let settled_nodes t = t.settled_gone + live_sum t Dijkstra.settled_count

let future_cost_evals t = t.h_evals_gone + live_sum t Dijkstra.future_cost_evals
