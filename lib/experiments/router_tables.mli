(** Regeneration of the paper's Tables 2–5 (and the live baseline
    comparison backing the CGE/SEGA/GBP juxtaposition).

    Channel-width searches are expensive, so each function takes the
    circuit list to run on (defaults to the full published set) and a
    router configuration (defaults to the paper's: IKMB, 20 passes). *)

type width_row = {
  spec : Fr_fpga.Circuits.spec;
  measured : int option;  (** min channel width found by our router; None = failed *)
  wirelength : float;  (** at the minimal width *)
}

val table2 : ?config:Fr_fpga.Router.config -> ?specs:Fr_fpga.Circuits.spec list -> unit -> width_row list
(** 3000-series circuits with the IKMB router (vs the published CGE
    widths). *)

val table3 : ?config:Fr_fpga.Router.config -> ?specs:Fr_fpga.Circuits.spec list -> unit -> width_row list
(** 4000-series circuits with the IKMB router (vs published SEGA/GBP). *)

val table2_to_table : width_row list -> Fr_util.Tab.t
val table3_to_table : width_row list -> Fr_util.Tab.t

type table4_row = {
  spec4 : Fr_fpga.Circuits.spec;
  w_ikmb : int option;
  w_pfa : int option;
  w_idom : int option;
}

val table4 :
  ?specs:Fr_fpga.Circuits.spec list ->
  ?max_passes:int ->
  ?reuse_ikmb:width_row list ->
  unit ->
  table4_row list
(** [reuse_ikmb] lets the caller feed Table 3's IKMB measurements instead of
    recomputing them (the searches are expensive). *)

val table4_to_table : table4_row list -> Fr_util.Tab.t

type table5_row = {
  spec5 : Fr_fpga.Circuits.spec;
  width : int;  (** common channel width used for the three runs *)
  pfa_wire_pct : float;  (** PFA wirelength increase % vs IKMB *)
  idom_wire_pct : float;
  pfa_path_pct : float;  (** PFA max-pathlength change % vs IKMB (negative = better) *)
  idom_path_pct : float;
}

val table5 : ?max_passes:int -> table4_row list -> table5_row list
(** Uses Table 4's per-circuit widths: each circuit of the rows is routed
    with IKMB, PFA and IDOM at the smallest width feasible for all three. *)

val table5_to_table : table5_row list -> Fr_util.Tab.t

type baseline_row = {
  spec_b : Fr_fpga.Circuits.spec;
  w_tree : int option;  (** IKMB router *)
  w_twopin : int option;  (** two-pin decomposition baseline *)
}

val baseline : ?specs:Fr_fpga.Circuits.spec list -> ?max_passes:int -> unit -> baseline_row list
(** Live stand-in for the CGE/SEGA/GBP comparison: the same router with
    nets broken into two-pin connections. *)

val baseline_to_table : baseline_row list -> Fr_util.Tab.t
