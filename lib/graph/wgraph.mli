(** Graph builder: the append-only construction phase of the routing
    substrate.

    A [Wgraph.t] only accumulates edges; once construction is done,
    {!freeze} packs it into an immutable CSR {!Topology.t}, and all
    traversal and mutation (weights, enable flags) happens on a
    {!Gstate.t} overlay — see {!Gstate.of_builder} for the one-step
    combination. *)

type t

type edge = int
(** Dense edge identifiers, assigned by {!add_edge} in order from 0 and
    stable across {!freeze}. *)

val create : ?edge_capacity:int -> int -> t
(** [create n] is a builder over nodes [0 .. n-1] with no edges.
    [edge_capacity] pre-sizes the edge store so that adding up to that many
    edges never reallocates (the RRG knows its edge count up front); past
    it, the store doubles. *)

val add_edge : t -> int -> int -> float -> edge
(** [add_edge g u v w] adds an undirected edge of weight [w >= 0.] and
    returns its id.  Self-loops are rejected; parallel edges are allowed. *)

val freeze : t -> Topology.t
(** Pack the accumulated edges into an immutable CSR topology.  The builder
    may keep growing afterwards; the frozen topology is unaffected. *)
