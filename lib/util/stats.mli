(** Small statistics helpers for aggregating experiment results. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val percent_vs : float -> float -> float
(** [percent_vs x reference] is the signed percent difference
    [100 * (x - reference) / reference] — the normalization used throughout
    the paper's Table 1 (negative = improvement). *)
