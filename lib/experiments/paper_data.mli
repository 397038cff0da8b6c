(** Published numbers from the paper, used for side-by-side reporting.

    These are constants transcribed from the paper's tables — the closed or
    unavailable comparators (CGE, SEGA, GBP) and the authors' own measured
    results — so every regenerated table can juxtapose "paper" and
    "measured" exactly the way the original does.  Per-circuit channel
    widths live with the circuit specs in {!Fr_fpga.Circuits}. *)

type table1_row = {
  alg : string;
  wire5 : float;  (** 5-pin wirelength % w.r.t. KMB *)
  path5 : float;  (** 5-pin max pathlength % w.r.t. optimal *)
  wire8 : float;
  path8 : float;
}

val table1_row : level:string -> alg:string -> table1_row option
(** Table 1's row for a congestion level (["none"], ["low"] or
    ["medium"]) and an algorithm name, as published. *)

val table5_avg_pfa_wire : float
val table5_avg_idom_wire : float
val table5_avg_pfa_path : float
val table5_avg_idom_path : float
