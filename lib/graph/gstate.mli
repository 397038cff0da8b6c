(** Mutable routing state over a frozen {!Topology}.

    This is the routing substrate of the whole system (paper §2): the
    topology holds nodes, endpoints and adjacency; a [Gstate.t] overlays it
    with everything a routing pass mutates — current edge weights
    (wirelength plus congestion) and node enable flags (the router
    removes the resources consumed by each routed net so that subsequent
    nets stay electrically disjoint; an edge is usable while both its
    endpoints are enabled).

    Every effective mutation bumps a {!version} counter, which a
    shortest-path cache ({!Dist_cache}) and a resumable search
    ({!Dijkstra.extend}) check so that neither serves a state other than
    the one it was made on, and appends an inverse entry to an {b undo
    journal}.  {!checkpoint} marks a journal position;
    {!rollback} restores the state at a mark in time proportional to the
    number of entries written since it — the router's per-pass rip-up no
    longer scans the whole graph.  Mutations that change nothing (setting a
    weight to its current value, disabling a disabled node) are complete
    no-ops: no journal entry, no version bump.

    {b Read-only views and parallelism.}  {!read_only_view} aliases a
    state — same arrays, same version counter, same journal — but every
    mutator raises.  This is the aliasing contract the parallel router is
    built on: worker domains hold views and can only read, so a routing
    wave whose solves run concurrently over views is free of data races
    {e provided the owning state is not mutated while the wave is in
    flight}.  The version counter is shared, so a {!Dist_cache} built over
    a view refuses lookups once the parent has mutated. *)

type t

type edge = Topology.edge

val of_builder : Wgraph.t -> t
(** Fresh state over [Wgraph.freeze b]: weights at their base values, every
    node enabled, version 0, empty journal. *)

val topology : t -> Topology.t

val num_nodes : t -> int

val num_edges : t -> int
(** Total number of edges (including those incident to disabled nodes). *)

val weight : t -> edge -> float

val set_weight : t -> edge -> float -> unit

val add_weight : t -> edge -> float -> unit
(** [add_weight g e dw] increments the weight (congestion update). *)

val endpoints : t -> edge -> int * int

val other_end : t -> edge -> int -> int
(** [other_end g e u] is the endpoint of [e] that is not [u].
    @raise Invalid_argument if [u] is not an endpoint of [e]. *)

val node_enabled : t -> int -> bool

val disable_node : t -> int -> unit
(** Disabling a node hides it and all incident edges from traversals;
    {!rollback} re-enables it. *)

val version : t -> int
(** Monotone counter bumped by every effective weight or enable/disable
    mutation, and by every non-empty {!rollback}. *)

val iter_adj : t -> int -> (edge -> int -> float -> unit) -> unit
(** [iter_adj g u f] calls [f e v w] for every incident edge [e] leading
    to an enabled neighbor [v] with weight [w].  If [u] itself is disabled
    nothing is visited. *)

val fold_adj : t -> int -> ('a -> edge -> int -> float -> 'a) -> 'a -> 'a

val iter_edges : t -> (edge -> int -> int -> float -> unit) -> unit
(** Iterates edges with both endpoints enabled. *)

val mean_edge_weight : t -> float
(** Average weight over edges with both endpoints enabled — the paper's
    congestion statistic (w̄). *)

val read_only_view : t -> t
(** A view sharing this state's arrays, version and journal.  Reads through
    the view see the parent's current state; {!set_weight}, {!add_weight},
    {!disable_node}, {!rollback} and {!commit} all raise
    [Invalid_argument].  {!checkpoint} is permitted (it only reads the
    journal position). *)

val is_read_only : t -> bool

(** {2 Checkpoint / rollback} *)

type checkpoint
(** A position in the undo journal.  Checkpoints obey stack discipline:
    nesting is fine, but once an inner span has been {!commit}ted, rolling
    back to a checkpoint taken {e before} that commit is unsound and must
    not be attempted. *)

val checkpoint : t -> checkpoint

val rollback : t -> checkpoint -> unit
(** Restore the exact state (weights and node flags) at the checkpoint,
    undoing journal entries newest-first — O(entries written since the
    checkpoint).  Bumps {!version} if anything was undone; the checkpoint
    remains valid for further rollbacks.
    @raise Invalid_argument on a checkpoint invalidated by an earlier
    rollback past it. *)

val commit : t -> checkpoint -> unit
(** Accept all mutations since the checkpoint: the journal is truncated to
    the mark without touching the state, so the entries can no longer be
    undone.  The state itself is unchanged (no version bump). *)

val copy_at : t -> checkpoint -> t
(** [copy_at g cp] is a fresh writable state equal to [g] as it was at the
    checkpoint: every weight and node flag bit for bit, over the same
    topology.  [g] is only read (a read-only view may be copied); its
    state, version, journal and counters are untouched.  The copy has a
    journal of its own, empty, with version 0 and zero counters, so what
    is written to it neither shows in [g]'s counters nor can be rolled
    back into [g].  Costs O(V + E + entries written since [cp]): the
    arrays are copied and those entries undone on the copy.
    @raise Invalid_argument on a checkpoint invalidated by an earlier
    rollback past it. *)

val journal_depth : t -> int
(** Current number of live journal entries. *)

(** {2 Counters} (monotone over the state's lifetime) *)

val mutations : t -> int
(** Effective mutations applied (journal entries written). *)

val rollbacks : t -> int
(** Number of {!rollback} calls. *)

val rollback_entries : t -> int
(** Total journal entries undone across all rollbacks — the actual
    restore work, to compare against O(V+E) full-graph scans. *)

val peak_journal_depth : t -> int
(** High-water mark of {!journal_depth} since creation or the last
    {!reset_peak_journal_depth}. *)

val reset_peak_journal_depth : t -> unit
(** Restart the {!peak_journal_depth} high-water mark at the current
    {!journal_depth}.  Callers that report a per-call peak (the router
    resets at every [route] entry; the ECO layer at every request) would
    otherwise re-report the lifetime maximum of a long-lived state. *)

(** {2 Hot-loop accessors}

    Direct views of the internal arrays for traversal inner loops
    ({!Dijkstra}) that cannot afford per-edge closure calls.  Read-only by
    contract: writing through them bypasses the journal and the version
    counter. *)

val unsafe_weights : t -> float array

val unsafe_node_bits : t -> Fr_util.Bitset.t
