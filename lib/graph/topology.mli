(** Frozen graph topology in CSR form.

    The immutable half of the routing substrate: node count, endpoints,
    adjacency, and construction-time base weights, packed into flat int
    arrays.  All per-pass mutable state (current weights, enable flags)
    lives in the {!Gstate} overlay; many overlays can share one topology,
    which is what makes snapshot-free rip-up and (eventually) parallel
    searches possible.

    The record is [private]: fields are readable — traversal hot loops
    ({!Dijkstra}) index [off]/[pack] directly — but values can only be
    built by {!Wgraph.freeze}.  Treat every array as read-only. *)

type edge = int
(** Dense edge identifiers, assigned by {!Wgraph.add_edge} in order from
    0. *)

type t = private {
  n : int;  (** number of nodes *)
  m : int;  (** number of edges *)
  off : int array;
      (** length [n+1]; node [u]'s adjacency occupies [pack] indices
          [off.(u) .. off.(u+1) - 1] *)
  pack : int array;
      (** length [4m]: interleaved (neighbor, edge id) pairs — the
          neighbor at even index [k], the edge at [k+1] — in increasing
          edge-id order per node *)
  eu : int array;  (** first endpoint per edge *)
  ev : int array;  (** second endpoint per edge *)
  base : float array;  (** construction-time weights *)
}

val make : n:int -> eu:int array -> ev:int array -> base:float array -> t
(** Internal constructor used by {!Wgraph.freeze}; the input arrays are
    captured, not copied.  Endpoint validity is the builder's
    responsibility. *)

val num_nodes : t -> int

val num_edges : t -> int

val endpoints : t -> edge -> int * int
