(** The paper's §5 evaluation as one registry: what each table and figure
    runs, in full mode (the workloads EXPERIMENTS.md reports) and in quick
    mode.  [fpga_route table N [--quick]] and [fpga_route figure N] look
    one entry up; [bench/main.exe] runs every entry in order, in quick
    mode under [REPRO_QUICK=1]. *)

val tables : quick:bool -> (string * (unit -> string)) list
(** Tables 1–5 and the live two-pin baseline by command-line name (["1"]
    to ["5"], ["baseline"]), in print order, each rendered as text.

    - Full mode: Table 1 at 50 nets per configuration, Table 2 on the five
      3000-series circuits, Tables 3–5 and the baseline on the nine
      4000-series circuits, every route capped at 20 rip-up passes.
    - Quick mode: Table 1 at 10 nets per configuration, Table 2 on busc,
      Tables 3–5 and the baseline on apex7, term1 and 9symml, 8 passes.

    The entries of one call share their rows: Table 4 takes its IKMB
    column from Table 3's rows and Table 5 its widths from Table 4's, each
    computed once, by the first entry that needs them. *)

val figures : (string * (unit -> string)) list
(** Figures 3, 4, 6, 10, 11, 13, 14 and 16 by number, in print order, each
    rendered as text.  A figure has one workload, the same in both
    modes. *)
