(** Nets (paper §2): a set of pins to be electrically connected, the first
    of which is the signal source. *)

type t = {
  source : int;
  sinks : int list;  (** distinct, never containing [source] *)
}

val make : source:int -> sinks:int list -> t
(** Deduplicates sinks and drops the source from them.
    @raise Invalid_argument on a negative node id. *)

val of_terminals : int list -> t
(** First element is the source. @raise Invalid_argument on []. *)

val terminals : t -> int list
(** Source first, then sinks. *)
