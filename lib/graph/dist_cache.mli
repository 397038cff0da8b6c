(** Memoized per-source Dijkstra results — the shared shortest-path
    performance layer.

    The iterated constructions (IGMST §3, IDOM §4.2) repeatedly need
    distances between terminals, Steiner candidates, and accepted Steiner
    nodes.  Because the graph is undirected, [dist(t, s) = dist(s, t)], so a
    single Dijkstra per terminal answers the Δ-scan for *every* candidate —
    the "factoring out common computations" the paper prescribes.

    Three mechanisms keep the layer cheap:

    - {b Target-bounded queries.}  In targeted mode (the default),
      point-to-point queries run Dijkstra only until the requested nodes are
      settled and store the {e partial} result; a later query that needs a
      farther node transparently resumes the same search ({!Dijkstra.extend}).
    - {b Versioned invalidation.}  Every entry is checked against
      {!Gstate.version}; any weight or enable/disable mutation of the host
      graph drops the whole table before the next query (see {!invalidate}
      for the explicit form).
    - {b LRU capacity bound.}  At most [capacity] per-source entries are
      kept; inserting past the bound evicts the least-recently-used source.

    {b Goal-direction.}  A future-cost lower bound installed with
    {!set_future_cost} goal-directs every {e targeted} lookup.  Entries
    are keyed by [(source, heuristic id)], so a frontier opened under one
    heuristic is never resumed under a different one (or under none) —
    only its own [h] keeps the settled prefix an f-order prefix.
    Complete lookups ({!result}, [targets = None]) always run {e plain}
    Dijkstra under a dedicated key: the KMB/ZEL distance-graph and
    full-array consumers read exact distances at every index and gain
    nothing from goal-direction, so they bypass it entirely.

    Hit/miss/eviction/settled-node counters expose the layer's behavior to
    benchmarks and tests.

    {b Thread-safety audit} (for the parallel router).  A cache is {e not}
    thread-safe: lookups mutate the table and recency list, and resuming a
    memoized {!Dijkstra.result} refines its arrays in place.  The parallel
    router therefore gives each worker domain its own cache over a shared
    {!Gstate.read_only_view}; within one cache all mutation is owner-local,
    and the underlying graph is only read, so concurrent waves are race-free.
    Cache state never changes {e results}: a hit resumes the same search a
    miss would start, and settled prefixes of a Dijkstra run are final
    (with or without a heuristic), so per-domain caches with different
    contents still return bit-identical distances and paths. *)

type t

val create :
  ?restrict:Fr_util.Bitset.t ->
  ?targeted:bool ->
  ?capacity:int ->
  Gstate.t ->
  t
(** [restrict] applies to every memoized Dijkstra run (candidate-pruning on
    big routing graphs): one bit per node of the graph, and a search
    explores only set nodes besides its source ({!Dijkstra.run}, which
    rejects a bitset of another length).  The
    cache and its results share the bitset, so it must stay unchanged for
    the cache's lifetime; callers must ensure all nodes they query are
    set.  [targeted] (default [true]) enables target-bounded partial runs;
    [false] forces every run to settle the whole graph, the reference
    tests hold targeted caches to.  [capacity] (default 1024) bounds
    the number of cached sources; the least recently used is evicted.
    @raise Invalid_argument if [capacity < 1]. *)

val graph : t -> Gstate.t

val restriction : t -> Fr_util.Bitset.t option
(** The [restrict] bitset given to {!create}, shared, not copied. *)

val set_future_cost : t -> Dijkstra.heuristic option -> unit
(** Install (or clear) the future-cost bound used by subsequent targeted
    lookups.  The router sets a fresh per-net heuristic before each solve;
    existing entries stay valid under their own keys. *)

val result : t -> src:int -> Dijkstra.result
(** The memoized single-source result, {e complete} (every reachable node
    settled, so raw [dist] array reads are final), recomputed if the graph
    changed.  Always plain Dijkstra — never goal-directed. *)

val result_for : t -> src:int -> targets:int list -> Dijkstra.result
(** Like {!result} but only guarantees the listed nodes are settled — the
    cheap form for Δ-scans that read the [dist] array at known indices.
    The returned result may be partial; reads beyond [targets] must go
    through {!Dijkstra.dist} (which resumes on demand). *)

val dist : t -> src:int -> dst:int -> float
(** One-way targeted lookup: the search runs (or resumes) from [src]. *)

val cached : t -> int -> bool
(** Whether the entry the next targeted lookup for this source would use
    (keyed under the currently installed heuristic, or plain when none) is
    currently valid. *)

val dist_sym : t -> int -> int -> float
(** [dist_sym t a b] = [dist t ~src:a ~dst:b], but served from whichever of
    the two endpoints is already cached (the graph is undirected).  This is
    what makes the Δ-scans of IGMST/IDOM run without any per-candidate
    Dijkstra. *)

val path_edges_sym : t -> int -> int -> Gstate.edge list
(** Shortest-path edge set between two nodes, served like {!dist_sym}
    (edge sets are orientation-independent). *)

val invalidate : t -> unit
(** Drop every entry and re-stamp at the graph's current version.  Version
    checks make this automatic; the router calls it explicitly after
    committing a net so the dependency is visible at the call site. *)

val runs : t -> int
(** Number of Dijkstra searches started (= misses) over the cache's
    lifetime. *)

val hits : t -> int
(** Queries answered from a live entry (possibly after resuming it). *)

val misses : t -> int

val evictions : t -> int
(** Entries dropped by the LRU capacity bound (not by invalidation). *)

val settled_nodes : t -> int
(** Total nodes settled by every search this cache ever ran, including
    entries since evicted or invalidated — the search layer's work
    metric. *)

val future_cost_evals : t -> int
(** Total heuristic evaluations across every search this cache ever ran
    (same lifetime accounting as {!settled_nodes}). *)
