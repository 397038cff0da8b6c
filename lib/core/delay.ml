module G = Fr_graph

(* Unit parasitics: Ω and F per unit wirelength, F per sink pin, Ω at
   the driver. *)
let unit_resistance = 1.

let unit_capacitance = 1.

let sink_load = 1.

let driver_resistance = 1.

let max_delay g ~tree ~net =
  let src = net.Net.source in
  if not (G.Tree.spans g tree (Net.terminals net)) then
    invalid_arg "Delay.max_delay: tree does not span net";
  let sink_tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace sink_tbl s ()) net.Net.sinks;
  (* Root the tree at the source. *)
  let adj = Hashtbl.create 64 in
  let add u x =
    let cur = try Hashtbl.find adj u with Not_found -> [] in
    Hashtbl.replace adj u (x :: cur)
  in
  List.iter
    (fun e ->
      let u, v = G.Gstate.endpoints g e in
      let w = G.Gstate.weight g e in
      add u (v, w);
      add v (u, w))
    tree.G.Tree.edges;
  (* Downstream capacitance per node (wire cap of the subtree plus sink
     loads), by post-order DFS. *)
  let subtree_cap = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  let rec cap_of u =
    Hashtbl.replace visited u ();
    let own = if Hashtbl.mem sink_tbl u then sink_load else 0. in
    let below =
      List.fold_left
        (fun acc (v, w) ->
          if Hashtbl.mem visited v then acc
          else acc +. (unit_capacitance *. w) +. cap_of v)
        0.
        (try Hashtbl.find adj u with Not_found -> [])
    in
    let total = own +. below in
    Hashtbl.replace subtree_cap u total;
    total
  in
  let total_cap = if tree.G.Tree.edges = [] then 0. else cap_of src in
  let driver_term = driver_resistance *. total_cap in
  (* Delays by pre-order DFS: accumulate R(path)·C(downstream). *)
  let delays = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  let rec walk u acc =
    Hashtbl.replace seen u ();
    if Hashtbl.mem sink_tbl u then Hashtbl.replace delays u (driver_term +. acc);
    List.iter
      (fun (v, w) ->
        if not (Hashtbl.mem seen v) then begin
          let r = unit_resistance *. w in
          let c_half_edge = unit_capacitance *. w /. 2. in
          let c_below = try Hashtbl.find subtree_cap v with Not_found -> 0. in
          walk v (acc +. (r *. (c_half_edge +. c_below)))
        end)
      (try Hashtbl.find adj u with Not_found -> [])
  in
  if tree.G.Tree.edges <> [] then walk src 0.;
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt delays s with
      | Some d -> Float.max acc d
      | None -> invalid_arg "Delay.max_delay: sink not reached by tree")
    0. net.Net.sinks
