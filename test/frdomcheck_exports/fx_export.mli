(* Three exports, one per case the dead-export rule distinguishes. *)

val used : int -> int
(* Fx_user calls it: live. *)

val internal : int -> int
(* Only [used] calls it: dead as an export. *)

val unused : int -> int
(* Nothing calls it: dead. *)
