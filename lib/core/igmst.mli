(** The Iterated Graph Minimal Steiner Tree template (paper §3, Fig 5).

    Given any GMST heuristic [H], repeatedly find the Steiner candidate [t]
    maximizing the savings ΔH(G, N, S ∪ {t}) = cost(H(G,N∪S)) −
    cost(H(G,N∪S∪{t})) and grow S while some Δ is positive; the result is
    H(G, N∪S).  The performance bound of the composite construction is never
    worse than H's, and empirically much better (Table 1).

    This generalizes the Iterated 1-Steiner heuristic of Kahng–Robins
    (references [21,24,25]) from rectilinear MSTs to arbitrary graph Steiner
    heuristics. *)

type heuristic = {
  name : string;
  solve : Fr_graph.Dist_cache.t -> terminals:int list -> Fr_graph.Tree.t;
}

val kmb : heuristic

val zel : unit -> heuristic
(** Fresh ZEL instance carrying its own triple memo (safe to share across
    calls on the same graph; invalidated by graph version). *)

val solve :
  ?batched:bool ->
  ?candidates:int list ->
  heuristic ->
  Fr_graph.Dist_cache.t ->
  terminals:int list ->
  Fr_graph.Tree.t
(** [candidates] defaults to every enabled non-terminal node of the graph
    (the paper's V − N); the router passes a bounding-box subset on large
    routing graphs.  Candidates that cannot improve or are unreachable are
    simply never selected.

    [batched] (default false) accepts Steiner nodes in rounds rather than
    one at a time — the paper's remark that candidates "may be added in
    batches", which typically converges in ≤ 3 rounds.  Every accepted node
    is still verified to strictly reduce cost(H), so the performance bound
    is unaffected.
    @raise Routing_err.Unroutable if even [H] alone cannot span the net. *)

val default_candidates : Fr_graph.Gstate.t -> int list -> int list
(** [default_candidates g terminals] is every enabled node outside
    [terminals], ascending: the paper's V − N, the candidate set of
    {!solve} and {!Idom.solve} when none is given. *)

val rank_candidates :
  members:int array -> rows:float array array -> candidates:int list -> (int * float) list
(** The scoring step of the quick Δ scan.  [rows.(i)] is the distance row
    of [members.(i)] (its Dijkstra [dist] array, indexed by node id).  A
    candidate's score is the MST cost of the distance graph over the
    members plus that candidate, equal bit for bit to
    {!Fr_graph.Mst.prim_dense} on the same weights (the weight between
    members [i < j] is [rows.(i).(members.(j))]).  Returns the candidates
    whose score is below the members-only MST cost minus a 1e-7 margin,
    with their scores, stably sorted by score.  Candidates that provably
    cannot pass are dropped without running Prim: with L the longest edge
    of the members' MST and [t] joining it with degree j, its cost is at
    least the members' cost plus the sum of [t]'s j smallest member
    distances minus the sum of the MST's j-1 longest edges, so [t] is
    scored only if that difference is negative for some j >= 2, up to a
    margin that covers the rounding of both Prim sums.

    {b Row contract.}  A row need only be exact up to L: wherever the true
    distance exceeds L, any value above L ranks the same, bit for bit,
    since such an entry decides no skip, Prim pick, tie or sum.  That
    holds for the weights between members too.  {!solve} builds its rows
    that way: each member's search ({!Fr_graph.Dist_cache.result_for},
    plain) is settled only as far as a Prim over the members needs
    ({!Fr_graph.Mst.prim_searches}, reading the weight between [i < j]
    from [i]'s search), then below L
    ({!Fr_graph.Dist_cache.settle_below}); no search is extended toward
    the candidates.
    @raise Invalid_argument unless there is one row per member. *)

val steiner_nodes :
  ?batched:bool ->
  ?candidates:int list ->
  heuristic ->
  Fr_graph.Dist_cache.t ->
  terminals:int list ->
  int list
(** The accepted Steiner-node set S (execution-trace hook for Fig 6). *)

val ikmb :
  ?candidates:int list -> Fr_graph.Dist_cache.t -> terminals:int list -> Fr_graph.Tree.t
(** IGMST instantiated with {!Kmb} — the paper's IKMB. *)
