type t = {
  graph : Gstate.t;
  width : int;
  height : int;
  depth : int;
}

let create ?(via_weight = 2.) ~width ~height ~depth () =
  if width < 1 || height < 1 || depth < 1 then invalid_arg "Grid3.create: empty grid";
  let b = Wgraph.create ~edge_capacity:(3 * width * height * depth) (width * height * depth) in
  let id x y z = (((z * height) + y) * width) + x in
  for z = 0 to depth - 1 do
    for y = 0 to height - 1 do
      for x = 0 to width - 1 do
        if x + 1 < width then ignore (Wgraph.add_edge b (id x y z) (id (x + 1) y z) 1.);
        if y + 1 < height then ignore (Wgraph.add_edge b (id x y z) (id x (y + 1) z) 1.);
        if z + 1 < depth then ignore (Wgraph.add_edge b (id x y z) (id x y (z + 1)) via_weight)
      done
    done
  done;
  { graph = Gstate.of_builder b; width; height; depth }

let node t ~x ~y ~z =
  if x < 0 || x >= t.width || y < 0 || y >= t.height || z < 0 || z >= t.depth then
    invalid_arg "Grid3.node: out of range";
  (((z * t.height) + y) * t.width) + x
