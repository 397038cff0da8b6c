(** ASCII rendering of a routed FPGA (the Fig 16 analogue).

    Logic blocks render as [[]] cells; each channel segment shows its track
    occupancy as a hex digit (0–9, then a–f, '*' beyond 15), so channel
    pressure and hotspots are visible at a glance. *)

val occupancy_map : Rrg.t -> string
(** Device map with per-segment occupancy digits, after routing. *)

val summary : Rrg.t -> Router.stats -> string
(** One-paragraph routing summary: passes, wirelength, peak occupancy. *)
