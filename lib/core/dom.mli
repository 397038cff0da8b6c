(** The DOM spanning-arborescence heuristic (paper §4.2).

    A restriction of PFA where merge points must come from the net itself:
    each sink is connected by a shortest path to the closest sink/source it
    dominates, and the shortest-paths tree of the union is returned.  DOM is
    the inner construction iterated by {!Idom}. *)

val solve : Fr_graph.Dist_cache.t -> net:Net.t -> Fr_graph.Tree.t
(** @raise Routing_err.Unroutable when some sink is unreachable. *)
