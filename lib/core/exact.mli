(** Exact graph Steiner trees via the Dreyfus–Wagner dynamic program
    (with Erickson–Monma–Veinott-style Dijkstra relaxation).

    Exponential in the terminal count only — O(3^k·|V| + 2^k·Dijkstra) —
    so it is practical for the paper's net sizes (≤ ~10 pins) and serves as
    the "OPT" reference for approximation-quality tests and the optimal
    Steiner trees of Fig 4. *)

val steiner : Fr_graph.Gstate.t -> terminals:int list -> Fr_graph.Tree.t
(** A minimum-cost tree of the enabled subgraph spanning the terminals.
    @raise Invalid_argument beyond 12 terminals (a safety limit).
    @raise Routing_err.Unroutable when the terminals are disconnected. *)

val steiner_cost : Fr_graph.Gstate.t -> terminals:int list -> float
