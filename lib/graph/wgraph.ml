type edge = int

(* The edge store: three parallel arrays, doubled when full, of which the
   first [m] slots hold edges. *)
type t = {
  n : int;
  mutable m : int;
  mutable eu : int array;
  mutable ev : int array;
  mutable ew : float array;
}

let create ?(edge_capacity = 0) n =
  let cap = Int.max 8 edge_capacity in
  { n; m = 0; eu = Array.make cap 0; ev = Array.make cap 0; ew = Array.make cap 0. }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_edge g u v w =
  if u = v then invalid_arg "Wgraph.add_edge: self-loop";
  if u < 0 || u >= g.n || v < 0 || v >= g.n then invalid_arg "Wgraph.add_edge: node out of range";
  if w < 0. then invalid_arg "Wgraph.add_edge: negative weight";
  if Int.equal g.m (Array.length g.eu) then begin
    g.eu <- grow g.eu 0;
    g.ev <- grow g.ev 0;
    g.ew <- grow g.ew 0.
  end;
  let e = g.m in
  g.eu.(e) <- u;
  g.ev.(e) <- v;
  g.ew.(e) <- w;
  g.m <- e + 1;
  e

let freeze g =
  Topology.make ~n:g.n ~eu:(Array.sub g.eu 0 g.m) ~ev:(Array.sub g.ev 0 g.m)
    ~base:(Array.sub g.ew 0 g.m)
