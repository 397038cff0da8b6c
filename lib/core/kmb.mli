(** The Kou–Markowsky–Berman graph Steiner tree heuristic (paper §8.1,
    Fig 17; reference [26]).  Performance ratio 2·(1 − 1/L) where L is the
    maximum number of leaves in an optimal solution.

    Steps: (1) build the complete "distance graph" over the terminals with
    shortest-path weights, (2) take its MST, (3) expand each MST edge into
    the corresponding shortest path of G, (4) take an MST of that subgraph,
    (5) prune pendant non-terminal leaves.

    Steps 1–2 are one Prim over the terminals' searches
    ({!Fr_graph.Mst.prim_searches}): each pair is read from the search
    {!Fr_graph.Dist_cache.dist_sym} would read it from, opened by the same
    call, and settled only as far as the MST's picks need.  The tree and
    the cache's searches are those of {!Fr_graph.Mst.prim_dense} over
    [dist_sym]; only fewer nodes are settled, since a search stops near
    the MST's longest edge instead of at its farthest fellow terminal. *)

val solve : Fr_graph.Dist_cache.t -> terminals:int list -> Fr_graph.Tree.t
(** @raise Routing_err.Unroutable when the terminals are not all in one
    connected component of the (enabled part of the) graph. *)

val cost : Fr_graph.Dist_cache.t -> terminals:int list -> float
(** [cost cache ~terminals] = cost of [solve]'s tree; convenience for the
    Δ-scans of {!Igmst}. *)
