(** Elmore delay evaluation of routing trees.

    The paper's motivation (§1) is signal propagation delay, and its
    constructions "can be easily tuned to the specific parasitics of the
    underlying technology" (citing the technology-sensitive routing of
    [11, 15]).  This module provides the distributed-RC evaluation those
    works use: each tree edge contributes series resistance and
    distributed capacitance proportional to its length (= weight), sinks
    add load capacitance, and the source drives through a driver
    resistance.  All four parasitics are 1 per unit (1 Ω and 1 F per unit
    wirelength, 1 F per sink pin, 1 Ω at the driver), adequate for
    relative comparisons.  Under this model, the delay to a sink is

      R_driver·C(total) + Σ_{e on path} R(e)·(C(e)/2 + C(subtree below e))

    Pathlength-optimal trees (PFA/IDOM) minimize the dominant path-R term,
    which is why the paper routes critical nets with arborescences. *)

val max_delay : Fr_graph.Gstate.t -> tree:Fr_graph.Tree.t -> net:Net.t -> float
(** The critical-sink delay: the largest delay to any sink of the net.
    The tree must span the net.
    @raise Invalid_argument otherwise. *)
