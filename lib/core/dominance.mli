(** Graph dominance (paper Def 4.1) and the shared machinery of the
    arborescence constructions (§4).

    A node [p] dominates [s] (w.r.t. a source) when some shortest
    source-to-[p] path passes through [s], i.e.
    [minpath(n0,p) = minpath(n0,s) + minpath(s,p)].  All distances come from
    the memoized per-node Dijkstra results, so dominance tests are O(1)
    lookups once the participating nodes' results are cached. *)

val tol : float
(** Absolute tolerance for the dominance equality test (floating-point
    path sums). *)

val max_dom :
  ?scan:int list ->
  Fr_graph.Dist_cache.t ->
  source:int ->
  p:int ->
  q:int ->
  (int * float) option
(** [max_dom cache ~source ~p ~q] is the paper's MaxDom(p,q): a node
    dominated by both [p] and [q] farthest from the source, with its
    distance.  Always succeeds on connected inputs since the source is
    dominated by everything; [None] only if [p]/[q] are unreachable.
    [scan] bounds the scan to the listed nodes, which must be in ascending
    order with the source among them — and with it the Dijkstra settling,
    via targeted queries; without it every node is scanned and the scan
    settles whole per-source results.  A caller that asks for many pairs
    builds [scan] once. *)

val nearest_dominated :
  Fr_graph.Dist_cache.t -> source:int -> members:int list -> p:int -> (int * float) option
(** The parent-selection rule shared by DOM/PFA/IDOM: the member [s ≠ p]
    that [p] dominates, at minimum [minpath(s,p)] (ties: smaller source
    distance, then smaller id).  [None] when [p] is the source or
    unreachable; otherwise at least the source qualifies. *)

val fold_tree :
  Fr_graph.Dist_cache.t ->
  source:int ->
  members:int list ->
  keep:int list ->
  Fr_graph.Tree.t
(** Builds the final arborescence shared by DOM (members = net) and PFA
    (members = net + MaxDom Steiner points): connect every member to its
    nearest dominated member via a shortest path, take the shortest-paths
    tree of the union subgraph, and prune leaves outside [keep].  The result
    provably preserves every kept sink's graph distance from the source.
    @raise Routing_err.Unroutable if some member is unreachable. *)
