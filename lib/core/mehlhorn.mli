(** Mehlhorn's faster KMB-style Steiner approximation (paper reference
    [30]).

    Replaces KMB's all-pairs distance graph with a single multi-source
    Dijkstra: the graph is partitioned into terminal Voronoi regions, and
    every edge bridging two regions proposes a terminal-to-terminal
    connection of length d(u, s(u)) + w(u,v) + d(v, s(v)).  An MST over
    those proposals, expanded and cleaned exactly like KMB's steps 4–5,
    yields the same 2·(1−1/L) performance bound at O(|E| + |V| log |V|)
    per net — the complexity the paper quotes for KMB's fast
    implementation. *)

val solve : Fr_graph.Gstate.t -> terminals:int list -> Fr_graph.Tree.t
(** @raise Routing_err.Unroutable when the terminals are disconnected. *)

val voronoi : Fr_graph.Gstate.t -> terminals:int list -> int array * float array
(** The underlying partition: for every node, its closest terminal (-1 if
    unreachable) and the distance to it. *)
