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

val float : t -> float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] is [k] distinct integers drawn uniformly from
    [\[0, n)].
    @raise Invalid_argument unless [0 <= k <= n]. *)
