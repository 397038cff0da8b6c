(** Routing-resource graph for symmetrical-array FPGAs (paper §2, Fig 2).

    The graph mirrors the complete FPGA architecture: one node per channel
    wire segment (channel segment × track) and one node per logic-block pin;
    edges are programmable switches (switch-block connections between wires,
    following the architecture's [fs] pattern) and connection-block switches
    (pin to [fc] tracks of the adjacent channel).  Paths in this graph
    correspond exactly to feasible routes on the FPGA.

    Edge weights count wirelength: wire–wire switches weigh 1.0 and
    pin–wire connections 0.5, so the cost of a pin-to-pin path equals the
    number of wire segments it occupies.  The router adds congestion on top
    of these base weights and disables consumed nodes.

    Geometry: logic block (r,c) occupies the cell between horizontal
    channels y=r (south) and y=r+1 (north) and vertical channels x=c (west)
    and x=c+1 (east).  Horizontal channel y ∈ [0..R] has C segments;
    vertical channel x ∈ [0..C] has R segments. *)

type side =
  | North
  | East
  | South
  | West

val side_index : side -> int
val all_sides : side list

type seg =
  | H of int * int  (** H (y, x): horizontal channel y, segment x *)
  | V of int * int  (** V (x, y): vertical channel x, segment y *)

val compare_seg : seg -> seg -> int
(** Typed total order (all H before all V, then by coordinates) — the
    comparator for hot-path segment sorts. *)

type kind =
  | Wire of seg * int  (** segment and track *)
  | Pin of int * int * side * int  (** row, col, side, slot *)

type t = private {
  arch : Arch.t;
  graph : Fr_graph.Gstate.t;
  min_unit_cost : float;
      (** minimum enabled base cost per unit of Manhattan channel
          distance, computed at build — the admissible {!future_cost}
          scale (1.0 for this builder) *)
  node_x : float array;  (** every node's {!pos} x, filled once at build *)
  node_y : float array;  (** every node's {!pos} y, filled once at build *)
}

val build : Arch.t -> t
(** Wire-to-wire switch edges cost 1.0 and pin-to-wire edges 0.5: every
    edge costs its L1 span in the {!pos} embedding. *)

val hwire : t -> y:int -> x:int -> track:int -> int
val vwire : t -> x:int -> y:int -> track:int -> int

val pin : t -> row:int -> col:int -> side:side -> slot:int -> int
(** @raise Invalid_argument out of range. *)

val kind : t -> int -> kind

val num_wires : t -> int
(** Total number of wire nodes (pins excluded). *)

val is_wire : t -> int -> bool

val pos : t -> int -> float * float
(** (x, y) channel-coordinate position: a horizontal wire at the middle
    of its segment on channel line y, a vertical wire at the middle of
    its segment on channel line x, a pin at its block's center.  Used for
    bounding-box candidate pruning and as the geometry under
    {!future_cost} — adjacent switch edges span exactly L1 distance 1.0
    (wire–wire) or 0.5 (pin–wire) in this embedding.  Read from
    [node_x]/[node_y], which hot loops may index directly.
    @raise Invalid_argument out of range. *)

val future_cost : t -> targets:int list -> int -> float
(** Admissible, consistent future-cost lower bound toward [targets]:
    Manhattan channel distance from {!pos} to the nearest target, scaled
    by [min_unit_cost].  Admissibility holds at every node for any
    target set and survives every run-time repricing the router performs
    (Waves congestion adds, {!Fr_graph.Cost_model} multiplies by factors
    >= 1, disabling removes paths), so a bound made once stays valid for
    the life of the search it directs.  The router goal-directs each
    connection of the two-pin decomposition by the bound to its one sink,
    passed straight to that connection's {!Fr_graph.Dijkstra.run}; the
    tree constructions search plain.  Verified by property test on
    seeded random architectures in both base-cost and Cost_model-priced
    states. *)

val wires_of_segment : t -> seg -> int list
(** All W wire nodes of a channel segment (enabled or not). *)

val segment_of_node : t -> int -> seg option
(** [None] for pin nodes. *)

val segments : t -> seg list
(** Every channel segment of the device. *)

val segment_occupancy : t -> seg -> int
(** Number of consumed (disabled) wires in the segment — the channel-width
    pressure the router tracks. *)

val wirelength : t -> Fr_graph.Tree.t -> float
(** Number of wire nodes a routed tree occupies (the paper's wirelength on
    FPGAs). *)

val read_only_view : t -> t
(** The same RRG over {!Fr_graph.Gstate.read_only_view} of its graph: what
    the parallel router hands to worker domains so speculative solves can
    read the live routing state but any attempted mutation raises. *)

val copy_at : t -> Fr_graph.Gstate.checkpoint -> t
(** The same RRG over {!Fr_graph.Gstate.copy_at} of its graph: a writable
    routing state equal to this one's at the checkpoint, which an ECO
    session lands a batch on to compare it with the stored landing
    without writing its own graph. *)
