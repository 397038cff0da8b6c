(** Regeneration of the paper's Tables 2–5 (and the live baseline
    comparison backing the CGE/SEGA/GBP juxtaposition).

    Every channel-width search and route runs the paper's router with the
    given cap on rip-up passes; which circuits and which cap each table
    runs is {!Repro}'s decision. *)

type width_row = {
  spec : Fr_fpga.Circuits.spec;
  measured : int option;  (** min channel width found by our router; None = failed *)
  wirelength : float;  (** at the minimal width *)
}

val width_rows : max_passes:int -> Fr_fpga.Circuits.spec list -> width_row list
(** Each circuit's minimum channel width with the IKMB router, searched
    from its published width: Table 2's rows on 3000-series circuits (vs
    the published CGE widths), Table 3's on 4000-series ones (vs SEGA and
    GBP). *)

val table2_to_table : width_row list -> Fr_util.Tab.t
val table3_to_table : width_row list -> Fr_util.Tab.t

type table4_row = {
  spec4 : Fr_fpga.Circuits.spec;
  w_ikmb : int option;
  w_pfa : int option;
  w_idom : int option;
}

val table4 : max_passes:int -> width_row list -> table4_row list
(** Table 4 on the circuits of Table 3's rows: the IKMB column is the rows'
    measured widths, and PFA's and IDOM's minimum widths are searched. *)

val table4_to_table : table4_row list -> Fr_util.Tab.t

type table5_row = {
  spec5 : Fr_fpga.Circuits.spec;
  width : int;  (** common channel width used for the three runs *)
  pfa_wire_pct : float;  (** PFA wirelength increase % vs IKMB *)
  idom_wire_pct : float;
  pfa_path_pct : float;  (** PFA max-pathlength change % vs IKMB (negative = better) *)
  idom_path_pct : float;
}

type table5 = {
  rows5 : table5_row list;  (** the circuits all three algorithms route *)
  left_out : string list;
      (** one note per circuit left out: the algorithms unroutable at its
          width, or the ones Table 4 found no width for *)
}

val table5 : max_passes:int -> table4_row list -> table5
(** Uses Table 4's per-circuit widths: each circuit of the rows is routed
    with IKMB, PFA and IDOM at the widest of its three widths, the
    smallest at which each of them routed in its own sweep.  Routability
    need not be monotone in the width, so one of them can still fail
    there (PFA on alu2 at W=11 in full mode); such a circuit is left out
    of the rows and named in [left_out]. *)

val table5_to_table : table5 -> Fr_util.Tab.t
(** The rows, their averages, and a note per circuit left out. *)

type baseline_row = {
  spec_b : Fr_fpga.Circuits.spec;
  w_tree : int option;  (** IKMB router *)
  w_twopin : int option;  (** two-pin decomposition baseline *)
}

val baseline : max_passes:int -> width_row list -> baseline_row list
(** Live stand-in for the CGE/SEGA/GBP comparison on the circuits of
    Table 3's rows: the IKMB column is the rows' measured widths, and the
    two-pin column is searched with the same router, its nets broken into
    two-pin connections. *)

val baseline_to_table : baseline_row list -> Fr_util.Tab.t
