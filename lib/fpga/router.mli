(** The detailed FPGA router (paper §5).

    Nets are routed one at a time on the routing-resource graph with any of
    the paper's constructions.  After each net: the consumed wires and pins
    are disabled (subsequent nets stay electrically disjoint) and edge
    weights around the used channel segments are increased to reflect
    congestion.  When some nets cannot be routed, a pass fails; the failed
    nets move to the front of the ordering (the paper's move-to-front
    heuristic) and the whole circuit is re-routed, up to [max_passes]
    passes (the paper's feasibility threshold of 20), after which the
    circuit is declared unroutable at that channel width.

    Steiner-candidate scans are pruned to the net's bounding box plus 3
    blocks and thinned to at most 2500 candidates; if a net fails under
    pruning it is retried on the full graph before being counted as failed.
    Every search is target-bounded.  The two-pin decomposition's
    point-to-point searches are also goal-directed, each by the
    admissible Manhattan future-cost bound to its sink
    ({!Rrg.future_cost}); the tree constructions' searches run plain,
    since a bound to the nearest of a net's terminals pruned about as much
    work as its evaluations cost.  No solve writes the graph: a two-pin
    solve claims each connection's wires in an allowed-node bitset of its
    own, so the next connection avoids them.  Because relaxation canonicalizes
    equal-distance parents (see {!Fr_graph.Dijkstra}), the trees are
    those a full, plain search would give either way.

    {b Batched waves and parallelism.}  Each pass partitions its wave,
    first-fit in wave order, into batches of nets with pairwise-disjoint
    terminal bounding boxes (at most 8 nets per batch).  A
    batch's nets are solved speculatively against the state frozen at the
    batch's start, then committed serially in wave order; a speculative
    tree that lost a wire to an earlier commit of its own batch is
    re-solved on the spot against the live state (counted in
    [par_conflicts]).  A two-pin net (one not routed as critical) batches
    alone, so it solves against the live state, as the sequential
    baseline it models does.  [route ~domains:n] fans the speculative
    solves of each batch out over [n] domains; every solve, on a worker
    or not, reads one read-only graph view.  Every solve creates its own
    distance caches or searches and drops them when it returns, so its
    search work, like its tree, is a pure function of the net and the
    frozen state; everything else is serial and order-fixed.  The
    routed result and every counter in {!stats} except [domains] are
    therefore identical for every [domains] value; only the wall time
    changes.

    {b Negotiated congestion} ([mode = Negotiated]) replaces the rip-up
    scheduling above with PathFinder-style Lagrangian pricing
    ({!Fr_graph.Cost_model}): every iteration, {e all} nets route
    independently against shared, over-subscribable resources — one
    parallel wave over the whole netlist, not disjoint batches — and a
    resource used by more than one net is overused, which is legal
    mid-flight.  Between iterations the overused resources' prices
    escalate (present pressure geometrically, history by a sub-gradient
    step on the overuse) until the cheapest trees are mutually disjoint,
    at which point the trees are committed in canonical net order at base
    weights.  Prices follow {!Fr_graph.Cost_model}'s constants; the
    negotiation gives up after 64 iterations, or after 12 in a row without
    a new best total overuse.  Solves are pure functions of each
    iteration's frozen priced graph and the pricing reads only
    iteration-start state, so negotiated results are also bit-identical
    across [domains]. *)

type strategy =
  | Tree_alg of Fr_core.Routing_alg.t
      (** route each multi-pin net as one unit (the paper's approach) *)
  | Two_pin_decomposition
      (** break nets into independent source–sink connections — the
          strategy of CGE/SEGA/GBP that the paper credits its channel-width
          win against *)

type mode =
  | Waves  (** rip-up passes over disjoint speculative batches (default) *)
  | Negotiated  (** PathFinder-style negotiated congestion *)

type config = {
  strategy : strategy;  (** default [Tree_alg IKMB] *)
  mode : mode;  (** default [Waves] *)
  critical_strategy : (Netlist.net -> bool) option;
      (** §2's net classification: nets satisfying the predicate are
          "critical" and routed with IDOM (shortest paths first), the rest
          with [strategy].  [None] (default) routes everything with
          [strategy]. *)
  max_passes : int;
      (** waves mode's rip-up pass cap (default 20, the paper's feasibility
          threshold).  Negotiated mode does not read it: it stops after 64
          pricing iterations, or 12 in a row without a new best overuse.
          The daemon and the CLI reject a pass cap given with negotiated
          mode. *)
}

val default_config : config

val config_with : ?alg:Fr_core.Routing_alg.t -> ?max_passes:int -> ?mode:mode -> unit -> config

type routed_net = {
  net : Netlist.net;
  tree : Fr_graph.Tree.t;
  wires_used : float;  (** wirelength in wire segments *)
  max_path : float;  (** max source–sink pathlength (base weights) *)
}

val candidates_for : Rrg.t -> cap:int -> Fr_util.Bitset.t option -> int list
(** Candidate Steiner nodes for one net: enabled wire nodes set in the
    region (the net's bounding box, one bit per node; [None] for the whole
    graph), thinned by a uniform stride to at most [cap] (the router passes
    2500).  Exposed so tests can pin the thinning bounds: when the scan
    finds [count > cap] nodes, the kept count is at most [cap] and more
    than [cap / 2]. *)

type stats = {
  passes : int;
      (** waves: rip-up passes run; negotiated: pricing iterations run *)
  routed : routed_net list;
  total_wirelength : float;
  total_max_path : float;
  peak_occupancy : int;  (** max wires consumed in any channel segment *)
  dijkstra_runs : int;
      (** Dijkstra searches started across all passes: one per source a
          solve's cache looked up, plus one per two-pin connection *)
  settled_nodes : int;
      (** total nodes settled by those searches — the search layer's work
          metric *)
  mutations : int;
      (** effective graph mutations (journal entries written) across all
          passes: commits and pricing.  Solves write none, so a two-pin
          connection's wire claims are not counted. *)
  rollbacks : int;
      (** journal rollbacks performed, empty ones included.  Waves: one
          per rip-up pass after the first, plus, in an {!Eco.apply}, one in
          pass 1 to the first ledger batch the edit invalidates;
          negotiated: one at entry, tearing the maintained routing down,
          and one to the base weights once prices converge.  Solves roll
          nothing back, two-pin ones included.  A scratch {!route} is a
          fresh session, so it counts what {!Eco.create} counts: no pass-1
          rollback in waves mode (there is no ledger to roll back into),
          and an empty entry rollback in negotiated mode. *)
  journal_depth : int;
      (** peak undo-journal depth during {e this} call (the high-water mark
          is reset at entry) — the per-pass restore cost, to compare
          against the O(V+E) full-graph snapshot scans it replaced *)
  domains : int;  (** domain count this route ran with *)
  par_batches : int;
      (** multi-net fan-outs: rounds of two or more solves against the
          frozen state — waves batches across all passes, negotiated
          iterations — counted whatever [domains] is, so it measures the
          parallelism available and is equal for every domain count *)
  par_conflicts : int;
      (** speculative trees invalidated by a batch-mate's commit and
          re-solved against the live state *)
  future_cost_evals : int;
      (** heuristic evaluations performed by the goal-directed searches
          (the two-pin decomposition's; 0 for a tree construction) *)
}

type failure = {
  failed_nets : string list;  (** nets still failing in the last pass *)
  passes_tried : int;
}

val route :
  ?config:config -> ?domains:int -> Rrg.t -> Netlist.circuit -> (stats, failure) result
(** Routes the whole circuit.  A scratch route is an {!Eco} session opened
    and closed: it opens a session on the graph's current state, routes
    once with the code {!Eco.create} runs, commits the journal at the
    session base and shuts the session's pool down.  Each rip-up pass
    rolls back to that base in time proportional to the entries the
    previous pass wrote ({!Fr_graph.Gstate.rollback}), not O(V+E).  The
    RRG is left in the state the route ends in (useful for rendering):
    waves mode keeps the final pass, even a failed one; negotiated mode
    keeps the committed trees, or the entry state after a failure.  None
    of it stays undoable: {!Fr_graph.Gstate.journal_depth} is back at its
    entry value.

    [domains] (default 1) is the number of domains speculative batch
    solves run on; the routed trees and every stat but [domains] are
    identical for every value (see the batching note above).  Worker
    domains are spawned once per call and shut down before returning.

    All work counters in {!stats} are per-call: calling [route] twice on
    the same (reusable) graph state reports each call's own work, not the
    state's lifetime totals.
    @raise Invalid_argument when the circuit does not validate, or does not
    fit the RRG (another array size, or a pin slot at or above the
    architecture's [pin_slots]), or when [domains] is not between 1 and
    {!Fr_util.Pool.max_domains}; before any domain is spawned or the graph
    is touched. *)

val min_channel_width :
  ?config:config ->
  ?domains:int ->
  arch_of_width:(int -> Arch.t) ->
  circuit:Netlist.circuit ->
  start:int ->
  unit ->
  (int * stats) option
(** Smallest channel width at which the circuit routes completely,
    assuming feasibility is monotone in the width, with the stats of the
    answer's own route.  The answer routes and the width below it fails
    (or the answer is 1).  A failing width costs several rip-up passes
    and a routable one about one, so the probes are ordered to fail once:
    when [start] routes, they step down [start - 1], [start - 2], ... to
    the first failure.  When [start] fails, they gallop upward with
    doubling steps, clamped to [start + 15], and bisect the last gap; the
    cap itself is always tried before giving up, and [None] means even
    the cap fails.
    @raise Invalid_argument when [start < 1]. *)

(** {2 Incremental (ECO) re-routing}

    A long-lived routing session over one RRG, the engine every route runs
    in ({!route} is a session opened and closed): the journal is kept live
    (never truncated) above the session's base checkpoint, so a netlist
    delta needs at most a {e targeted rollback} — to the first wave batch
    whose landing the edit changes (waves mode) or to the base state
    (negotiated mode) — followed by a re-route of the affected suffix
    against the live state on the session's persistent domain pool.

    In waves mode, pass 1 is one walk over the new schedule beside the
    stored ledger of batches.  While nothing has been rolled back, a batch
    with the stored batch's nets is kept as it stands.  Any other batch is
    solved and landed on a copy of the graph's state at the stored batch's
    mark ({!Rrg.copy_at}).  If no net fails and it lands what the ledger
    stored there (net by net, the same pins as a set and the same tree),
    the graph already holds that landing, so the walk keeps it and goes on
    keeping.  Otherwise, and at the schedule's end with ledger left over,
    the journal rolls back to that mark once, the copy's landing is
    committed there, and every later batch is solved on the graph.  An
    edit that leaves its batch's trees as they were therefore solves that
    one batch, on the copy, and writes nothing to the session's graph: a
    driver swap on a net routed by a construction that reads only the
    terminal set (KMB, ZEL, IKMB, IZEL), or the undo of an earlier edit.

    Negotiated mode keeps nothing between requests: every request
    negotiates every net from the session base, and stores the converged
    landing as the one ledger entry a failed request's restore replays.

    The contract is differential exactness, not best effort: after
    {!Eco.apply}, the maintained routing (trees, wirelength, pathlength,
    pass count, failure verdicts) and the graph's state are bit-identical
    to a from-scratch {!route} of the edited netlist with the same config
    — waves mode because the state at a batch mark is a function of the
    commits landed before it, in order, and a copy is the batch's start
    state bit for bit (so every kept batch, and every landing carried over
    from a copy, is what a solve on the graph would land), and later
    passes run the scratch loop verbatim; negotiated mode because it runs
    the scratch negotiation verbatim.  What the ECO path saves is the work
    for the kept batches, and the journal writes of an edit that keeps its
    trees, reported per request in {!Eco.eco_stats}: the [mutations] and
    [rollbacks] of its {!stats} count writes to the session's graph only,
    not to a copy. *)

module Eco : sig
  type t
  (** A routing session: the RRG, its live journal and worker pool, the
      maintained routing, and the replay ledger incremental requests roll
      back into. *)

  type delta =
    | Add_net of Netlist.net  (** append a net (name must be fresh) *)
    | Remove_net of string  (** drop a net by name *)
    | Retime_net of string * Netlist.pin_ref * Netlist.pin_ref list
        (** replace a net's terminals: name, new source, new sinks *)

  type eco_stats = {
    stats : stats;  (** per-request router stats (counters are deltas) *)
    nets_total : int;  (** nets in the edited netlist *)
    nets_ripped : int;
        (** nets this request ripped up and re-solved; negotiated, every
            net ([nets_total]) *)
    nets_reused : int;
        (** nets this request did not solve: waves, those of the kept
            batches (none once a later pass re-routes everything);
            negotiated, none *)
  }

  val create :
    ?config:config ->
    ?domains:int ->
    Rrg.t ->
    Netlist.circuit ->
    (t * eco_stats, failure) result
  (** Route the circuit from scratch and open a session maintaining the
      result.  The session owns its worker pool until {!close}; on
      [Error] no session is created, the pool is torn down and the graph
      is restored to its entry state.
      @raise Invalid_argument as {!route}. *)

  val apply : t -> delta list -> (eco_stats, failure) result
  (** Apply the deltas (in order) to the maintained netlist and re-route
      incrementally.  On [Ok] the session maintains the edited netlist's
      routing; on [Error] (the edited netlist does not route at this
      width) the pre-request netlist and routing are restored, so the
      session remains usable.
      @raise Invalid_argument on a malformed delta (unknown or duplicate
      net name, invalid pins, a pin slot the RRG lacks, a pin already used
      by another net) or on a closed session, before the session is
      touched: it is unchanged and takes the next delta as before. *)

  val circuit : t -> Netlist.circuit
  (** The maintained netlist (reflects all applied deltas). *)

  val routed : t -> routed_net list
  (** The maintained routing, in the same order {!route} reports. *)

  val last_stats : t -> stats option
  (** Router stats of the most recent successful request. *)

  val close : t -> unit
  (** Shut the session's worker pool down (idempotent).  The graph keeps
      the maintained routing's state. *)
end
