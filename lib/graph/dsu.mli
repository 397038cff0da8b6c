(** Union–find with path compression and union by rank (Kruskal substrate). *)

type t

val create : int -> t

val union : t -> int -> int -> bool
(** [union t a b] merges the classes of [a] and [b]; returns [false] when
    they were already in the same class. *)

val count : t -> int
(** Number of disjoint classes currently represented. *)
