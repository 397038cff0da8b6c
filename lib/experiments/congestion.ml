module G = Fr_graph
module C = Fr_core
module Rng = Fr_util.Rng

let congested_grid ?(width = 20) ?(height = 20) rng ~k =
  let grid = G.Grid.create ~width ~height in
  let g = grid.G.Grid.graph in
  for _ = 1 to k do
    let pins = 2 + Rng.int rng 4 in
    let terminals = G.Random_graph.random_net rng g ~k:pins in
    let cache = G.Dist_cache.create g in
    let tree = C.Kmb.solve cache ~terminals in
    List.iter (fun e -> G.Gstate.add_weight g e 1.) tree.G.Tree.edges
  done;
  grid

let levels = [ ("none", 0); ("low", 10); ("medium", 20) ]
