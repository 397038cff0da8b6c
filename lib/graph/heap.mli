(** Binary min-heap of integer payloads under a two-key float priority.

    The queue of the label-setting searches in the core library
    (Mehlhorn's Voronoi regions, AHHK, the exact Steiner program).
    Payloads may repeat: those searches use lazy deletion and skip entries
    of already-settled nodes on pop.  {!Dijkstra} keeps its own
    addressable frontier instead (one entry per node, decrease-key), with
    the same [(prio, tie, seq)] order.

    Entries are totally ordered by [(prio, tie, seq)], where [seq] is a
    per-heap push counter, so full ties pop in FIFO push order.  The order
    is total, hence the pop sequence is a pure function of the push
    sequence, independent of the array layout.

    Both keys go in positionally and {!pop} returns only the payload, so
    neither operation builds an option, a tuple or a boxed optional
    argument; once the arrays have grown to a search's peak frontier, the
    heap itself allocates nothing.  A search re-reads whatever key it needs
    from its own distance array. *)

type t

val create : ?capacity:int -> unit -> t

val push : t -> float -> float -> int -> unit
(** [push h prio tie x] inserts payload [x] under the key [(prio, tie)].
    The core searches pass [tie = 0.]. *)

val pop : t -> int
(** Removes the minimum entry by [(prio, tie, seq)] and returns its payload.
    @raise Invalid_argument if the heap is empty. *)

val is_empty : t -> bool
