module G = Fr_graph

let solve cache ~net =
  let members = Net.terminals net in
  Dominance.fold_tree cache ~source:net.Net.source ~members ~keep:members
