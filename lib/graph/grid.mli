(** Rectilinear grid graphs.

    The paper's Table 1 experiments run on 20×20 weighted grid graphs whose
    initial unit weights are perturbed by congestion (§5); before any net is
    routed, shortest-path distances equal rectilinear distance (Fig 3a). *)

type t = {
  graph : Gstate.t;
  width : int;  (** number of columns (x in [0..width-1]) *)
  height : int;  (** number of rows (y in [0..height-1]) *)
}

val create : width:int -> height:int -> t
(** 4-connected grid; every edge has weight 1.
    @raise Invalid_argument when either side is below 1. *)

val node : t -> x:int -> y:int -> int
(** @raise Invalid_argument when out of range. *)

val coords : t -> int -> int * int

val manhattan : t -> int -> int -> int
(** Rectilinear distance between two grid nodes (in grid steps). *)
