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

val mem_node : Gstate.t -> t -> int -> bool

val is_tree : Gstate.t -> t -> bool
(** Connected and acyclic over the induced node set (vacuously true when
    empty). *)

val spans : Gstate.t -> t -> int list -> bool
(** All given terminals appear in the tree (a single terminal with no edges
    counts as spanned). *)

val uses_only_enabled : Gstate.t -> t -> bool
(** Every node the tree touches is enabled, so the tree is still routable
    on the current state. *)

val path_length : Gstate.t -> t -> src:int -> dst:int -> float
(** Length of the unique tree path between two tree nodes.
    @raise Invalid_argument if either node is absent or disconnected. *)

val path_lengths_from : Gstate.t -> t -> src:int -> (int * float) list
(** Distances from [src] to every tree node, by tree traversal. *)

val path_table : Gstate.t -> t -> src:int -> (int, float) Hashtbl.t
(** Hashtable variant of [path_lengths_from] for hot-path per-sink lookups:
    O(1) per probe instead of a linear scan of the association list. *)

val max_path_length : Gstate.t -> t -> src:int -> sinks:int list -> float
(** The paper's "maximum source–sink pathlength" metric. *)

val prune : Gstate.t -> t -> keep:int list -> t
(** Repeatedly removes leaf nodes not in [keep] (KMB's final pendant-edge
    deletion step, Fig 17). *)

val union : t -> t -> t
