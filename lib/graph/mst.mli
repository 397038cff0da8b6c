(** Minimum spanning trees.

    Three flavours are needed by the paper's constructions:
    - Prim on a dense, implicitly-given complete graph — ZEL's [MST(G')]
      over its contracted distance matrix, and the tests' reference;
    - the same Prim over resumable shortest-path searches, for a
      "distance graph" whose weights are graph distances still to be
      searched — KMB steps 1–2 and the members' MST of IGMST's candidate
      scan;
    - Kruskal on an explicit sparse edge list — for [MST(G'')] over the
      union of expanded shortest paths (KMB step 4). *)

val prim_dense : n:int -> weight:(int -> int -> float) -> (int * int) list * float
(** [prim_dense ~n ~weight] computes an MST of the complete graph over
    nodes [0..n-1] with symmetric weight function [weight].  Returns tree
    edges (as index pairs) and total cost.  With [n <= 1] the tree is empty
    with cost 0.  Unconnected pairs may be encoded with [infinity]; if the
    graph is disconnected the returned cost is [infinity]. *)

val prim_searches :
  nodes:int array -> search:(int -> int -> Dijkstra.result) -> (int * int) list * float * float
(** [prim_searches ~nodes ~search] is {!prim_dense} over the complete graph
    on indices [0..n-1] whose weight between [i] and [j] is the distance
    between [nodes.(i)] and [nodes.(j)] in the plain search [search i j]
    (rooted at either node), with each search settled only as far as the
    MST needs.  Returns [prim_dense]'s edges, in its order, and its cost,
    bit for bit, and the longest pick ([neg_infinity] when [n <= 1]).

    [search i j] is called once per pair, when and in the order
    [prim_dense] would call [weight i j] (the tree end first), so a caller
    that opens searches on demand ({!Dist_cache.search_sym}) opens the
    ones [prim_dense] over {!Dist_cache.dist_sym} would, at the same
    calls.  Each step settles every pending pair's search toward its
    target, only below the least distance recorded or tentative among the
    pairs ({!Dijkstra.extend_toward}), and then through the pick's
    distance only the pairs that could still tie with it and move the
    pick or its tree end.  A pair's distance is read once it is final
    ({!Dijkstra.is_final}), so the picks, [best_from] ties and the sum are
    [prim_dense]'s.  The searches must be plain and the graph unmutated. *)

val kruskal :
  nodes:int list ->
  edges:(int * int * float * int) list ->
  (int * int * float * int) list * float
(** [kruskal ~nodes ~edges] computes an MST (or forest, if disconnected —
    then the cost is [infinity]) of the graph whose node set is [nodes] and
    whose edges are [(u, v, w, tag)] tuples; node ids are arbitrary ints.
    Returns the chosen edges and total cost.  Ties are broken by [tag] so
    results are deterministic. *)
