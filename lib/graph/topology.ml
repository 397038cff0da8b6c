type edge = int

type t = {
  n : int;
  m : int;
  off : int array;
  pack : int array;
  eu : int array;
  ev : int array;
  base : float array;
}

(* CSR construction by counting sort.  Each undirected edge contributes one
   (neighbor, edge id) pair to both endpoints; pairs are laid out in
   increasing edge-id order per node, which reproduces the adjacency order
   of the old Vec-of-edges representation bit for bit (Dijkstra's
   equal-distance tie-breaking depends on it). *)
let make ~n ~eu ~ev ~base =
  let m = Array.length eu in
  let mv = Array.length ev and mw = Array.length base in
  if mv <> m || mw <> m then invalid_arg "Topology.make: endpoint/weight arrays disagree";
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    off.(eu.(e)) <- off.(eu.(e)) + 2;
    off.(ev.(e)) <- off.(ev.(e)) + 2
  done;
  let total = ref 0 in
  for u = 0 to n - 1 do
    let c = off.(u) in
    off.(u) <- !total;
    total := !total + c
  done;
  off.(n) <- !total;
  let cur = Array.copy off in
  let pack = Array.make (4 * m) 0 in
  for e = 0 to m - 1 do
    let u = eu.(e) and v = ev.(e) in
    pack.(cur.(u)) <- v;
    pack.(cur.(u) + 1) <- e;
    cur.(u) <- cur.(u) + 2;
    pack.(cur.(v)) <- u;
    pack.(cur.(v) + 1) <- e;
    cur.(v) <- cur.(v) + 2
  done;
  { n; m; off; pack; eu; ev; base }

let num_nodes t = t.n

let num_edges t = t.m

let endpoints t e = (t.eu.(e), t.ev.(e))
