(** Zelikovsky's 11/6-approximation graph Steiner tree heuristic
    (paper §8.2, Fig 18; reference [39]).

    Greedily contracts terminal triples whose best Steiner point [v_z]
    yields a positive MST "win", then hands the original terminals plus the
    accumulated Steiner points to {!Kmb}. *)

type memo
(** Cache of per-triple Steiner points [(v_z, dist_z)].  The scan for the
    best [v_z] is O(|V|) per triple; inside {!Igmst}'s Δ-loop the same
    triples recur for every candidate, so memoizing them is the paper's
    "factoring out common computations".  Stamped with the graph version —
    stale entries are discarded automatically.  Entries also bake in
    whatever candidate list produced them, so use one memo per candidate
    set. *)

val create_memo : unit -> memo

val solve :
  ?memo:memo ->
  ?steiner_candidates:int list ->
  Fr_graph.Dist_cache.t ->
  terminals:int list ->
  Fr_graph.Tree.t
(** [steiner_candidates] bounds the triple scan to the listed nodes (the
    router's bounding-box pruning on large routing graphs) — and, through
    targeted Dijkstra queries, the settling done on their behalf; without
    it every enabled node is a candidate Steiner point.
    @raise Routing_err.Unroutable when terminals cannot be spanned. *)
