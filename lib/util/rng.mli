(** Deterministic pseudo-random helpers.

    All experiment workloads are generated from named seeds so that every
    table and figure is reproducible run-to-run. *)

type t = Random.State.t

val make : int -> t
(** [make seed] is a fresh generator from an integer seed. *)

val of_name : string -> t
(** [of_name s] derives a deterministic generator from a string (used to
    give each benchmark circuit its own stable stream). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] is [k] distinct integers drawn uniformly from
    [\[0, n)].
    @raise Invalid_argument unless [0 <= k <= n]. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator, for giving each worker
    domain its own deterministic stream.  Consumes one value from the
    parent, so derive children in a fixed order (e.g. [Array.init n (split t)]).
    @raise Invalid_argument if [i < 0]. *)
