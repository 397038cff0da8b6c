(** Memoized per-source Dijkstra results — the shortest-path performance
    layer of one net's construction.

    The iterated constructions (IGMST §3, IDOM §4.2) repeatedly need
    distances between terminals, Steiner candidates, and accepted Steiner
    nodes.  Because the graph is undirected, [dist(t, s) = dist(s, t)], so a
    single Dijkstra per terminal answers the Δ-scan for *every* candidate —
    the "factoring out common computations" the paper prescribes.

    Two mechanisms keep the layer cheap and correct:

    - {b Target-bounded queries.}  In targeted mode (the default),
      point-to-point queries run Dijkstra only until the requested nodes are
      settled and store the {e partial} result; a later query that needs a
      farther node transparently resumes the same search ({!Dijkstra.extend}).
    - {b One graph state.}  A cache records {!Gstate.version} at
      creation and serves that state only: after any weight or
      enable/disable mutation of the host graph, each lookup ({!result},
      {!result_for}, {!settle_below}, {!dist}, {!cached}, {!dist_sym},
      {!path_edges_sym}) raises
      [Invalid_argument "Dist_cache.<entry>: graph mutated since the cache was created"]
      with its own name as [<entry>], instead of answering from the old
      state or searching again.  A caller that mutates the graph makes a
      new cache.

    A cache lives as long as one net's construction: the router creates
    one per tree-construction solve attempt and drops it when the attempt
    returns, so nothing bounds or evicts its entries.

    {b One plain table.}  Every search a cache runs is plain Dijkstra, one
    entry per source: a targeted and a complete lookup of the same source
    resume the same search.  Full-array consumers read exact distances at
    every index.  KMB's distance-graph MST and the members' MST of IGMST's
    candidate scan settle their searches only as far as their picks need
    ({!Mst.prim_searches}, over {!search_sym} for KMB), and the scan then
    settles its member rows to a distance ({!settle_below}): both need a
    distance-ordered frontier.  Goal-direction lives outside the cache,
    at the one call that pays for it: the router's two-pin connections
    run {!Dijkstra.run} under a future-cost bound directly.

    Run and settled-node counters expose the layer's work to the router's
    stats and to tests.

    {b Thread safety.}  A cache is {e not} thread-safe: lookups mutate its
    table, and resuming a memoized {!Dijkstra.result} refines its arrays
    in place.  The parallel router is race-free by ownership: each solve
    creates its own caches over a shared {!Gstate.read_only_view}, so a
    worker domain mutates only what it allocated, and the graph is only
    read.  Cache state never changes {e results}: a lookup of a cached
    source resumes the search a fresh one would start, and settled
    prefixes of a Dijkstra run are final. *)

type t

val create : ?restrict:Fr_util.Bitset.t -> ?targeted:bool -> Gstate.t -> t
(** [restrict] applies to every memoized Dijkstra run (candidate-pruning on
    big routing graphs): one bit per node of the graph, and a search
    explores only set nodes besides its source ({!Dijkstra.run}, which
    rejects a bitset of another length).  The cache and its results share
    the bitset, so it must stay unchanged for the cache's lifetime;
    callers must ensure all nodes they query are set.  [targeted] (default
    [true]) enables target-bounded partial runs; [false] forces every run
    to settle the whole graph, the reference tests hold targeted caches
    to. *)

val graph : t -> Gstate.t

val result : t -> src:int -> Dijkstra.result
(** The memoized single-source result, {e complete} (every reachable node
    settled, so raw [dist] array reads are final). *)

val result_for : t -> src:int -> targets:int list -> Dijkstra.result
(** Like {!result} but only guarantees the listed nodes are settled — the
    cheap form for Δ-scans that read the [dist] array at known indices.
    The returned result may be partial; reads beyond [targets] must go
    through {!Dijkstra.dist} (which resumes on demand). *)

val settle_below : t -> src:int -> float -> unit
(** [settle_below t ~src bound] settles the entry of [src] (opening it if
    there is none) below [bound] ({!Dijkstra.extend_below}): after it, the
    entry's [dist] array is exact at every node at most [bound] away (at
    [bound] itself, unless a zero-weight edge leads there from another
    node at [bound]), and at least [bound] everywhere else. *)

val dist : t -> src:int -> dst:int -> float
(** One-way targeted lookup: the search runs (or resumes) from [src]. *)

val cached : t -> int -> bool
(** Whether this source has an entry. *)

val dist_sym : t -> int -> int -> float
(** [dist_sym t a b] = [dist t ~src:a ~dst:b], but served from whichever of
    the two endpoints is already cached (the graph is undirected).  This is
    what makes the Δ-scans of IGMST/IDOM run without any per-candidate
    Dijkstra. *)

val search_sym : t -> int -> int -> Dijkstra.result
(** [search_sym t a b] is the search {!dist_sym}[ t a b] would read,
    opened for [a] when neither endpoint has an entry, with nothing more
    settled: {!Mst.prim_searches} settles it only as far as its MST
    needs. *)

val path_edges_sym : t -> int -> int -> Gstate.edge list
(** Shortest-path edge set between two nodes, served like {!dist_sym}
    (edge sets are orientation-independent). *)

val runs : t -> int
(** Number of Dijkstra searches started: one per source looked up, since
    a later lookup of the same source resumes its search. *)

val settled_nodes : t -> int
(** Total nodes settled by every search this cache ran — the search
    layer's work metric. *)
