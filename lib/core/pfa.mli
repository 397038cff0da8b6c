(** The Path-Folding Arborescence heuristic (paper §4.1, Fig 9).

    Generalizes the RSA construction of Rao et al. [32] from the Manhattan
    plane to arbitrary weighted graphs: repeatedly replace the pair of
    active nodes {p,q} whose MaxDom(p,q) lies farthest from the source by
    that MaxDom node, then connect every accumulated node to the nearest
    node it dominates.  Produces a shortest-paths tree; wirelength is the
    secondary objective.  Worst case Θ(N)·OPT on general graphs (Fig 10)
    and →2·OPT on grids (Fig 11) — see {!Worst_case}. *)

val solve : ?steiner_candidates:int list -> Fr_graph.Dist_cache.t -> net:Net.t -> Fr_graph.Tree.t
(** [steiner_candidates] bounds the MaxDom scan to the listed nodes plus
    the source (the router's bounding-box pruning on large routing graphs)
    — and, through targeted Dijkstra queries, the settling done on their
    behalf; without it every enabled node is a candidate merge point.
    @raise Routing_err.Unroutable when some sink is unreachable. *)
