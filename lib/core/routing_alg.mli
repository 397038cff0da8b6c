(** Uniform interface over the paper's eight routing constructions
    (Table 1's row set), used by the experiments and the FPGA router.

    [candidates], when given, restricts Steiner-candidate / merge-point
    scans (the router's bounding-box pruning); algorithms that introduce no
    Steiner nodes ignore it. *)

type kind =
  | Steiner  (** minimizes wirelength only (GMST) *)
  | Arborescence  (** optimal pathlengths, wirelength secondary (GSA) *)

type t = {
  name : string;
  kind : kind;
  solve : ?candidates:int list -> Fr_graph.Dist_cache.t -> net:Net.t -> Fr_graph.Tree.t;
}

val kmb : t
val ikmb : t
val djka : t
val pfa : t
val idom : t

val all : t list
(** In the paper's Table 1 order: KMB, ZEL, IKMB, IZEL, DJKA, DOM, PFA,
    IDOM. *)

val by_name : string -> t option
(** Case-insensitive lookup. *)
