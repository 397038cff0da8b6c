type t = {
  graph : Gstate.t;
  width : int;
  height : int;
}

(* Edge ids are deterministic given the construction order below:
   for each node in row-major order, first the horizontal then the vertical
   outgoing edge (when they exist). *)

(* Unit weights: before congestion, shortest paths are rectilinear. *)
let create ~width ~height =
  if width < 1 || height < 1 then invalid_arg "Grid.create: empty grid";
  let b = Wgraph.create ~edge_capacity:(2 * width * height) (width * height) in
  let id x y = (y * width) + x in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then ignore (Wgraph.add_edge b (id x y) (id (x + 1) y) 1.);
      if y + 1 < height then ignore (Wgraph.add_edge b (id x y) (id x (y + 1)) 1.)
    done
  done;
  { graph = Gstate.of_builder b; width; height }

let node t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then invalid_arg "Grid.node: out of range";
  (y * t.width) + x

let coords t v = (v mod t.width, v / t.width)

let manhattan t a b =
  let xa, ya = coords t a and xb, yb = coords t b in
  abs (xa - xb) + abs (ya - yb)
