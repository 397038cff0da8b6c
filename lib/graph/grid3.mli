(** Three-dimensional grid graphs.

    The paper's conclusion notes that all of its constructions generalize
    to three-dimensional FPGAs (references [1, 2]) — they are formulated
    over arbitrary weighted graphs, so the only 3D-specific piece is the
    routing substrate.  This module provides the 6-connected 3D grid
    (intra-layer wiring plus inter-layer vias, typically weighted
    differently). *)

type t = {
  graph : Gstate.t;
  width : int;  (** x extent *)
  height : int;  (** y extent *)
  depth : int;  (** z extent (layers) *)
}

val create : ?via_weight:float -> width:int -> height:int -> depth:int -> unit -> t
(** 6-connected grid; intra-layer edges weigh 1., inter-layer via edges
    [via_weight] (default 2. — vias are slower than planar wires).
    @raise Invalid_argument on empty dimensions. *)

val node : t -> x:int -> y:int -> z:int -> int
(** @raise Invalid_argument when out of range. *)
