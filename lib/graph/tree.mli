(** Routing trees.

    All routing algorithms return a tree as a set of edge ids of the host
    graph.  This module provides the shared validity checks and metrics the
    paper reports: total wirelength ([cost], §2) and source–sink pathlengths
    (the GSA objective, §2/§4). *)

type t = { edges : Gstate.edge list }

val of_edges : Gstate.edge list -> t
(** Deduplicates edge ids. *)

val empty : t

val cost : Gstate.t -> t -> float
(** Sum of edge weights — the paper's [cost(T)]. *)

val nodes : Gstate.t -> t -> int list
(** Sorted distinct nodes touched by the tree's edges. *)

val is_tree : Gstate.t -> t -> bool
(** Connected and acyclic over the induced node set (vacuously true when
    empty). *)

val spans : Gstate.t -> t -> int list -> bool
(** All given terminals appear in the tree (a single terminal with no edges
    counts as spanned). *)

val uses_only_enabled : Gstate.t -> t -> bool
(** Every node the tree touches is enabled, so the tree is still routable
    on the current state. *)

val path_table : Gstate.t -> t -> src:int -> (int, float) Hashtbl.t
(** Distances from [src] to every tree node along the tree, at the graph's
    current weights: O(1) per-sink lookups.
    @raise Invalid_argument if the tree is non-empty and lacks [src]. *)

val max_path_length :
  weight:(Gstate.edge -> float) -> Gstate.t -> t -> src:int -> sinks:int list -> float
(** The paper's "maximum source–sink pathlength" metric, with edge lengths
    from [weight] (the router measures committed trees at the
    pre-congestion base weights, not the graph's current prices).  Same
    traversal as {!path_table}.
    @raise Invalid_argument if some sink is not reached from [src]. *)

val prune : Gstate.t -> t -> keep:int list -> t
(** Repeatedly removes leaf nodes not in [keep] (KMB's final pendant-edge
    deletion step, Fig 17). *)
