(** The paper's §5 evaluation as one registry: what each table and figure
    runs, in full mode (the workloads EXPERIMENTS.md reports) and in quick
    mode, and the CPU-time table.  [fpga_route table N [--quick]] and
    [fpga_route figure N] look one entry up; [fpga_route repro [--quick]]
    runs the CPU-time table and then every entry, in order. *)

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

type cpu_time = {
  construction : string;  (** the {!Fr_core.Routing_alg.t}'s name *)
  runs : int;  (** timed runs, the warm-up run excluded *)
  q1 : float;
  median : float;
  q3 : float;  (** quartiles of the time per net, in seconds *)
}

val cpu_quota_s : quick:bool -> float
(** The time each construction's timed runs may spend: 0.2 s in quick mode,
    0.5 s in full mode. *)

val cpu_times : quota_s:float -> cpu_time list
(** The §5 CPU-time measurement, on the paper's instance: a random graph
    with |V|=50 and |E|=1000 and a 5-pin net ({!Fr_graph.Random_graph},
    seed 42).  For each construction of {!Fr_core.Routing_alg.all}, in
    that order: one warm-up run, then single runs on the wall clock until
    [quota_s] is spent (at least one).  Each run gets a fresh
    {!Fr_graph.Dist_cache}, so a time includes the construction's
    shortest-path searches, as the paper's do. *)

val cpu_table : cpu_time list -> string
(** The times as a table: median, quartiles (in microseconds) and run
    count per construction. *)
