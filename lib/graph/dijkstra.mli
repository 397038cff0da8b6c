(** Dijkstra single-source shortest paths (paper reference [16]), with
    target-bounded early termination, transparent resumption, and optional
    A-star goal-direction.

    Used everywhere: distance graphs for KMB/ZEL (§8), dominance tests
    (Def 4.1), the DJKA baseline (§5), and path embedding for all
    constructions.

    A run made with [~targets] settles only as much of the graph as needed
    to finalize those nodes; the returned {!result} keeps its frontier
    (priority queue + settled set) so later queries {e resume} the search
    instead of recomputing it.  All accessor functions ({!dist},
    {!reachable}, {!path_edges}, …) settle on demand, so a targeted result
    answers every query with exactly the values a full run would produce.

    {b Goal-direction.}  With [~future_cost:h] the frontier is ordered by
    [f = g + h(v)] while [dist] keeps the true [g]; ties on [f] break by
    [g], then by the order in which the nodes got their current keys.
    When [h] is admissible ([h(v)] never exceeds
    the true remaining distance) {e and} consistent
    ([h(u) <= w(u,v) + h(v)] on every enabled edge, with [h >= 0] and all
    edge weights strictly positive), every settled node's [g] is final at
    settle time — the same settled-prefix-is-final invariant as plain
    Dijkstra, so resumption and all accessors work identically (the
    invariant argument is in DESIGN.md §4.8).  Relaxation canonicalizes
    equal-distance parents to the smallest edge id, which makes the
    shortest-path {e tree} a pure graph property: bit-identical whether or
    not a heuristic is supplied.  The caller promises admissibility and
    consistency; the search does not check them, the property tests in
    the test tree do.  A resumed search keeps the [h] it was started
    with, since only its own [h] keeps the settled prefix an f-order
    prefix.  Only a plain search's settled prefix is a distance prefix,
    so only a plain search can be settled to a distance
    ({!extend_below}), or have an entry read as final before it settles
    ({!is_final}): {!Mst.prim_searches} settles KMB's and IGMST's searches
    only as far as their MSTs' picks need that way.  The router
    goal-directs nothing but its two-pin connections, where a
    point-to-point search is what [h] prunes.

    {b Cost.}  The frontier is the search's own binary heap: parallel slot
    arrays for [(f, g, seq)] and the node, plus a per-node slot index, with
    at most one entry per node.  A strictly shorter path to a queued node
    re-keys its entry in place (decrease-key) under a fresh sequence
    number, so the search settles nodes in exactly the order of a
    lazy-deletion heap that pushed a duplicate instead, minus the stale
    pops; the settle order, the targeted stop and both counters are those
    of that heap.  The node enable bits and the restriction are tested
    inline on their bitset words, so settling a node calls into no other
    module except the heuristic.  Targets are tracked in a per-result tag
    array, so a targeted lookup costs O(|targets|) on top of the nodes it
    settles, and settling a node allocates no option, tuple or table
    entry.  A result holds four node-indexed arrays: [dist],
    [parent_edge], the tags and the slot index.

    Every accessor that takes a node raises
    [Invalid_argument "Dijkstra.<entry>: node out of range"] for a node
    outside [\[0, n)]. *)

type state
(** Opaque resumption state (frontier queue, settled set, counters). *)

type result = {
  src : int;
  dist : float array;
      (** True distances [g] ([infinity] where unreachable) — never the
          heuristic-augmented key.  Raw reads are final only for settled
          nodes (see {!is_settled}/{!complete}); use {!dist} or {!extend}
          first when the result may be partial. *)
  parent_edge : int array;
      (** [-1] at the source / unreached nodes; a node's tree parent is the
          edge's other endpoint *)
  state : state;
}

val run :
  ?restrict:Fr_util.Bitset.t ->
  ?edge_ok:(Gstate.edge -> bool) ->
  ?targets:int list ->
  ?future_cost:(int -> float) ->
  Gstate.t ->
  src:int ->
  result
(** Single-source shortest paths over enabled nodes/edges.  [restrict]
    further limits the explored node set to its set bits, one per node
    (the router's bounding-box pruning); the source is always allowed.
    The search keeps the bitset, not a copy, so it must not change while
    the result can still be resumed.  [edge_ok] limits the usable
    edges (used to compute shortest-path trees inside the union subgraph of
    the arborescence constructions).  [targets], when given, stops the
    search as soon as the last distinct unsettled listed node is settled
    (unreachable targets exhaust the search); duplicates and the source
    count once.  Without it the whole graph is settled.  [future_cost]
    goal-directs the search (see above) for its whole life, resumptions
    included.
    @raise Invalid_argument on a source outside the graph, or a [restrict]
    whose length is not the node count. *)

val extend : result -> targets:int list -> unit
(** Resume a partial run until every listed node is settled (or the search
    is exhausted).  No-op for already-settled targets.
    @raise Invalid_argument if the graph was mutated since [run].  Every
    resuming entry point ([extend], [extend_all], [dist], [reachable],
    [path_edges], [path_nodes]) raises this error under its own name, so a
    cache-staleness bug is attributable to the call that tripped it. *)

val extend_all : result -> unit
(** Resume until the search is exhausted (equivalent to a full run). *)

val extend_below : result -> float -> unit
(** [extend_below r bound] resumes a plain search until every node closer
    than [bound] is settled, in one drain that stops when the frontier's
    least key reaches [bound].  Afterwards [r.dist] is final at every node
    closer than [bound] and at least [bound] at every other node: a plain
    search settles in nondecreasing distance, so the settled set is the
    full run's settle order cut where the distance reaches [bound], plus
    whatever an earlier lookup had settled beyond it.  A node exactly
    [bound] away is final too, unless its shortest paths all end with an
    edge from another node at [bound] (a zero-weight edge, or one too
    light to change the rounded sum): then its entry may still be larger
    ({!is_final} tells).
    @raise Invalid_argument under a [future_cost] (an f-ordered frontier
    has no such cut), or if the graph was mutated since [run]. *)

val extend_toward : result -> target:int -> below:float -> unit
(** [extend_toward r ~target ~below] is {!extend_below}[ r below] with a
    drain that also stops once [target] is settled: it settles the
    shorter of two prefixes of the settle order, what a lookup of
    [target] settles and what {!extend_below} does.
    @raise Invalid_argument as {!extend_below} does, or for a [target]
    out of range. *)

val is_final : result -> int -> bool
(** Whether [r.dist] already holds the full run's value at this node,
    without settling anything: the node is settled, the frontier is
    empty, or (plain search) its entry is at most the frontier's least
    key, which bounds the final distance of every node not yet settled
    from below.  A node can be final before it settles; its [parent_edge]
    entry is final only once it is settled. *)

val settled_count : result -> int
(** Number of nodes settled so far — the unit of Dijkstra work that
    {!Dist_cache} counts and benchmarks report. *)

val future_cost_evals : result -> int
(** Heuristic evaluations performed by this search so far (0 when no
    [future_cost] was supplied). *)

val is_settled : result -> int -> bool
(** Whether this node's [dist]/parent entries are final. *)

val complete : result -> bool
(** Whether the search is exhausted (every reachable node settled). *)

val dist : result -> int -> float
(** Final distance to the node, resuming the search if needed. *)

val reachable : result -> int -> bool

val path_edges : result -> int -> Gstate.edge list
(** Edge ids of the tree path from the source to the given node, in
    source-to-node order.  @raise Invalid_argument if unreachable. *)

val path_nodes : result -> int -> int list
(** Node ids along the same path, starting with the source. *)

val spt_edges : result -> Gstate.edge list
(** All parent edges of the shortest-paths tree (one per reached non-source
    node).  Forces {!extend_all} so the tree is complete. *)
