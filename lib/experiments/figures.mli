(** Regeneration of the paper's illustrative figures as textual reports.

    Figures 1, 2, 5, 7–9, 12, 15, 17, 18 are architecture diagrams or
    pseudocode (their reproduction is the code itself); the data-bearing
    figures are regenerated here. *)

val fig3 : unit -> string
(** Congestion detours: on a congested 20×20 grid, compares shortest-path
    distance to rectilinear distance for sample pairs (Fig 3's point that
    routed nets destroy the rectilinear metric). *)

val fig4 : unit -> string
(** The four-pin example: one net routed with KMB, IKMB (= IGMST), DJKA,
    and IDOM, reporting wirelength and max pathlength of each — the
    KMB-vs-IGMST/IDOM improvements the figure calls out.  The instance is
    found by deterministic search over small congested grids. *)

val fig6 : unit -> string
(** IKMB execution trace on a small instance: the Steiner points accepted
    and the cost after each (paper's 7 → 6 → 5 walk-through). *)

val fig10 : unit -> string
(** PFA's linear worst case: PFA vs IDOM vs the reference optimum on the
    weighted-graph gadget for k = 4, 6, 8, 12 and 16 sinks. *)

val fig11 : unit -> string
(** PFA on the staircase family for n = 4, 8, 12 and 16: PFA vs the
    interval-DP optimum (the [1,2] window), and the congested-grid
    instance where PFA is strictly suboptimal. *)

val fig13 : unit -> string
(** IDOM execution trace: Steiner nodes accepted and the distance-graph
    cost after each (paper's 8 → 6 → 5 walk-through). *)

val fig14 : unit -> string
(** IDOM's logarithmic worst case on the set-cover gadget, 2 to 6 levels. *)

val fig16 : unit -> string
(** ASCII rendering of busc fully routed at W=9, the width our router
    needs for it (Table 2), the Fig 16 analogue. *)
