(* Entries form an intrusive doubly-linked recency list threaded through
   the table's values: the list head is the most recently touched entry,
   the tail the least.  Touch (hit or insert) unlinks the entry and pushes
   it to the head; eviction drops the tail — both O(1), where the previous
   scheme scanned the whole table for the minimum LRU tick on every insert
   at capacity, turning the miss path O(capacity) per miss under ECO
   churn. *)
type entry = {
  key : int * int;
  res : Dijkstra.result;
  mutable prev : entry option;  (* neighbor toward the MRU head *)
  mutable next : entry option;  (* neighbor toward the LRU tail *)
}

(* Entries are keyed by (source, heuristic id): a frontier opened under
   one future-cost function is never resumed under another (or under
   none), because only its own h keeps the settled prefix an f-order
   prefix.  [no_heuristic] keys plain runs — including every complete
   ([targets = None]) lookup, which bypasses the heuristic entirely so
   full-distance-array consumers (ZEL/DJKA/BRBC/dominance/eval) always
   see plain Dijkstra. *)
let no_heuristic = -1

type t = {
  g : Gstate.t;
  restrict : Fr_util.Bitset.t option;
  targeted : bool;
  capacity : int;
  table : (int * int, entry) Hashtbl.t;
  mutable head : entry option;  (* most recently touched *)
  mutable tail : entry option;  (* least recently touched: next eviction *)
  mutable future : Dijkstra.heuristic option;
  mutable stamp : int;
  (* Monotone lifetime counters; survive invalidations and evictions. *)
  mutable runs : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable settled_gone : int;  (* settled nodes of dropped entries *)
  mutable h_evals_gone : int;  (* future-cost evals of dropped entries *)
}

let default_capacity = 1024

let create ?restrict ?(targeted = true) ?(capacity = default_capacity) g =
  if capacity < 1 then invalid_arg "Dist_cache.create: capacity must be >= 1";
  {
    g;
    restrict;
    targeted;
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    future = None;
    stamp = Gstate.version g;
    runs = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    settled_gone = 0;
    h_evals_gone = 0;
  }

let graph t = t.g

let restriction t = t.restrict

let set_future_cost t h = t.future <- h

(* Recency-list plumbing.  [unlink] is safe on any live entry (head, tail
   or middle); the option patterns decide which neighbor pointers to fix,
   so no identity comparisons are needed. *)
let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  unlink t e;
  push_front t e

let account_drop t e =
  t.settled_gone <- t.settled_gone + Dijkstra.settled_count e.res;
  t.h_evals_gone <- t.h_evals_gone + Dijkstra.future_cost_evals e.res

let drop_all t =
  Hashtbl.iter (fun _ e -> account_drop t e) t.table;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let invalidate t =
  drop_all t;
  t.stamp <- Gstate.version t.g

let refresh t =
  let ver = Gstate.version t.g in
  if ver <> t.stamp then invalidate t

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some victim ->
      unlink t victim;
      account_drop t victim;
      Hashtbl.remove t.table victim.key;
      t.evictions <- t.evictions + 1

(* Look up (or run) the per-source result, bounded to [targets] when the
   cache is in targeted mode.  [targets = None] demands a complete result
   and always runs plain (see [no_heuristic] above); targeted lookups use
   the current future-cost function, whose id extends the key. *)
let lookup t ~src ~targets =
  refresh t;
  let targets = if t.targeted then targets else None in
  let future = match targets with None -> None | Some _ -> t.future in
  let hid = match future with None -> no_heuristic | Some h -> Dijkstra.heuristic_id h in
  let key = (src, hid) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      touch t e;
      (match targets with
      | None -> Dijkstra.extend_all e.res
      | Some ts -> Dijkstra.extend e.res ~targets:ts);
      e.res
  | None ->
      t.misses <- t.misses + 1;
      let res = Dijkstra.run ?restrict:t.restrict ?targets ?future_cost:future t.g ~src in
      t.runs <- t.runs + 1;
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let e = { key; res; prev = None; next = None } in
      push_front t e;
      Hashtbl.add t.table key e;
      res

let result t ~src = lookup t ~src ~targets:None

let result_for t ~src ~targets = lookup t ~src ~targets:(Some targets)

let dist t ~src ~dst = Dijkstra.dist (result_for t ~src ~targets:[ dst ]) dst

let path_edges t ~src ~dst = Dijkstra.path_edges (result_for t ~src ~targets:[ dst ]) dst

(* "Cached" means: the entry the next targeted lookup would use — keyed
   under the current heuristic (plain when none is set) — is live. *)
let cached t src =
  refresh t;
  let hid = match t.future with None -> no_heuristic | Some h -> Dijkstra.heuristic_id h in
  Hashtbl.mem t.table (src, hid)

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

let evictions t = t.evictions

let settled_nodes t =
  Hashtbl.fold (fun _ e acc -> acc + Dijkstra.settled_count e.res) t.table t.settled_gone

let future_cost_evals t =
  Hashtbl.fold (fun _ e acc -> acc + Dijkstra.future_cost_evals e.res) t.table t.h_evals_gone
