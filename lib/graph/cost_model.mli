(** Negotiated-congestion cost model (PathFinder / Lagrangian pricing).

    The second routing mode prices shared resources instead of scheduling
    around them: every node of the routing graph is a capacity-bounded
    resource that nets may {e over-subscribe} mid-flight, and the per-edge
    effective cost

    {v eff(e) = base(e) x (1 + present(e)) x (1 + history(e)) v}

    rises on contested resources until the cheapest trees of all nets are
    mutually disjoint.  [present] prices the congestion of the current
    iteration's routes (first-order pressure, escalated geometrically each
    iteration); [history] is the Lagrange-multiplier term, raised by a
    sub-gradient step on each resource's overuse and never lowered, so
    persistent conflicts accumulate permanent price and oscillation damps
    out (ParaLarH, arXiv 2010.11893; sub-gradient router, arXiv
    1803.03885).

    Both penalties live on {e nodes} (a wire is the exclusive resource; an
    edge is just a switch between two wires) and an edge pays the mean of
    its endpoints' penalties, so a path through a node pays that node's
    penalty exactly once — half on entry, half on exit.

    {b Epochs and cache validity.}  Prices change only at {!apply}, which
    writes the effective weights into the owning {!Gstate} through the
    journaled mutators: the graph version bumps and every {!Dist_cache}
    over the state (or any read-only view of it) invalidates.  Between two
    applies the graph is frozen, so all searches of
    one iteration — including searches fanned out over worker domains —
    resume and share results safely: the settled-prefix-is-final invariant
    holds per cost epoch by construction. *)

type t

val create : Gstate.t -> t
(** A cost model over the graph's {e current} weights (captured as the base
    costs).  Usage and history start at zero.  Every node carries one net
    (the capacity of an RRG wire).  The present factor starts at 0.5 per
    unit of prospective overuse and grows 1.3x per {!escalate}; each
    {!escalate} adds 0.4 history per unit of overuse.  The state must be
    mutable (the model writes prices through it).
    @raise Invalid_argument on a read-only view. *)

val begin_iteration : t -> unit
(** Reset all usage counters to zero (history is untouched), before
    recording the routes of a fresh iteration. *)

val use_nodes : t -> int list -> unit
(** Record one net's resource usage: every listed node's usage rises by
    one.  Callers pass each net's distinct node set ({!Tree.nodes}), so a
    net counts once per node no matter how many tree edges meet there. *)

val release_nodes : t -> int list -> unit
(** Rip-up: remove one net's recorded usage (the inverse of
    {!use_nodes}).  The router releases every conflicted net before
    {!apply}, so re-routing nets are priced against the {e other} nets'
    usage only — the self-exclusion PathFinder's first-order term needs.
    @raise Invalid_argument if some node's usage is already zero. *)

val usage : t -> int -> int
(** Nets recorded on the node this iteration. *)

val history : t -> int -> float
(** Accumulated history price of the node; monotone non-decreasing over
    the model's lifetime. *)

val overuse : t -> int
(** Total overuse this iteration: sum over nodes of
    [max 0 (usage - 1)].  Zero means the recorded routes are
    mutually disjoint — the convergence criterion. *)

val overused_nodes : t -> int list
(** Sorted nodes with [usage > 1]. *)

val escalate : t -> unit
(** The per-iteration multiplier update: each node's history rises by
    [0.4 * max 0 (usage - 1)] (the sub-gradient step on its capacity
    constraint) and the present factor grows 1.3x. *)

val apply : t -> unit
(** Write the effective cost of every edge into the graph —
    [base * (1 + present) * (1 + history)] with the endpoint-mean penalty
    split.  Bumps the graph version (via the journaled mutators) exactly
    when some price changed, which is what invalidates distance caches
    between epochs. *)
