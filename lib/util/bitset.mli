(** Fixed-size packed bit vectors.

    Backs the node enable flags of the routing substrate and the router's
    bounding-box regions: a get or set is one word load plus mask
    arithmetic, and the set takes [n/16] words instead of [n] bytes.

    Accesses are bounds-checked only by the backing array, so an index in
    [0 .. length-1] is the caller's responsibility. *)

type t

val create : ?value:bool -> int -> t
(** [create n] is a bit set of [n] bits, all initialized to [value]
    (default [true] — the substrate's enable flags start enabled).
    @raise Invalid_argument on a negative size. *)

val length : t -> int

val copy : t -> t
(** An independent bit set with the same bits. *)

val get : t -> int -> bool

val set : t -> int -> bool -> unit

val unsafe_words : t -> int array
(** The backing words, shared, not copied: bit [i] is bit [i land 15] of
    word [i lsr 4].  For hot loops in other modules that must test bits
    without a call per test (dune's dev profile compiles with [-opaque],
    so {!get} is never inlined across modules); {!Fr_graph.Dijkstra}'s
    drain reads its enable and restriction bits this way.  Treat the
    array as read-only. *)
