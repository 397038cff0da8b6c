module G = Fr_graph
module C = Fr_core
module F = Fr_fpga
module Rng = Fr_util.Rng
module Tab = Fr_util.Tab

let fig3 () =
  let rng = Rng.make 3 in
  let grid = Congestion.congested_grid rng ~k:20 in
  let g = grid.G.Grid.graph in
  let t =
    Tab.create
      ~title:"Figure 3: congestion detours — shortest-path vs rectilinear distance (k=20)"
      ~header:[ "Pair"; "Rectilinear"; "Weighted shortest path"; "Stretch" ]
  in
  let total_stretch = ref [] in
  for i = 1 to 8 do
    let a = Rng.int rng (G.Gstate.num_nodes g) and b = Rng.int rng (G.Gstate.num_nodes g) in
    if a <> b then begin
      let rect = float_of_int (G.Grid.manhattan grid a b) in
      let d = G.Dijkstra.dist (G.Dijkstra.run g ~src:a) b in
      let ax, ay = G.Grid.coords grid a and bx, by = G.Grid.coords grid b in
      if rect > 0. then begin
        total_stretch := (d /. rect) :: !total_stretch;
        Tab.add_row t
          [
            Printf.sprintf "%d: (%d,%d)-(%d,%d)" i ax ay bx by;
            Printf.sprintf "%.0f" rect;
            Printf.sprintf "%.2f" d;
            Printf.sprintf "%.2f" (d /. rect);
          ]
      end
    end
  done;
  Tab.add_note t
    (Printf.sprintf "Mean stretch %.2f; mean edge weight w=%.2f — distances no longer rectilinear."
       (Fr_util.Stats.mean !total_stretch)
       (G.Gstate.mean_edge_weight g));
  Tab.to_string t

(* Deterministic search for a 4-pin instance exhibiting the figure's
   qualitative relations: KMB strictly worse in wirelength than IKMB and
   IDOM, and strictly worse in max pathlength than IKMB, which in turn is
   worse than IDOM (= optimal). *)
let find_fig4_instance () =
  let try_seed seed =
    let rng = Rng.make seed in
    let grid = Congestion.congested_grid rng ~k:12 ~width:8 ~height:8 in
    let g = grid.G.Grid.graph in
    let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:4) in
    let cache = G.Dist_cache.create g in
    let solve (alg : C.Routing_alg.t) = alg.C.Routing_alg.solve cache ~net in
    let m alg = C.Eval.metrics cache ~net ~tree:(solve alg) in
    let kmb = m C.Routing_alg.kmb
    and ikmb = m C.Routing_alg.ikmb
    and djka = m C.Routing_alg.djka
    and idom = m C.Routing_alg.idom in
    let open C.Eval in
    if
      kmb.cost > ikmb.cost +. 1e-6
      && idom.cost <= kmb.cost +. 1e-6
      && kmb.max_path > ikmb.max_path +. 1e-6
      && ikmb.max_path > idom.max_path +. 1e-6
    then Some (seed, kmb, ikmb, djka, idom)
    else None
  in
  let rec search seed = if seed > 4000 then None else
      match try_seed seed with Some r -> Some r | None -> search (seed + 1)
  in
  search 0

let fig4 () =
  match find_fig4_instance () with
  | None -> "Figure 4: no qualifying instance found in the search budget."
  | Some (seed, kmb, ikmb, djka, idom) ->
      let open C.Eval in
      let t =
        Tab.create
          ~title:
            (Printf.sprintf
               "Figure 4: one 4-pin net, four routing solutions (congested 8x8 grid, seed %d)"
               seed)
          ~header:[ "Solution"; "Wirelength"; "Max pathlength"; "Pathlength optimal?" ]
      in
      let row name m =
        Tab.add_row t
          [
            name;
            Printf.sprintf "%.2f" m.cost;
            Printf.sprintf "%.2f" m.max_path;
            (if m.arborescence then "yes" else "no");
          ]
      in
      row "KMB (a)" kmb;
      row "IKMB/IGMST (b)" ikmb;
      row "DJKA (c)" djka;
      row "IDOM (d)" idom;
      Tab.add_note t
        (Printf.sprintf "KMB uses %.1f%% more wirelength than IKMB; max-path improvements over \
                         KMB: IKMB %.1f%%, IDOM %.1f%% (paper's instance: 12.5%%, 25%%, 50%%)."
           (Fr_util.Stats.percent_vs kmb.cost ikmb.cost)
           (100. *. (kmb.max_path -. ikmb.max_path) /. kmb.max_path)
           (100. *. (kmb.max_path -. idom.max_path) /. kmb.max_path));
      Tab.to_string t

(* Fig 6's walk-through instance: terminals A,B,C,D; hub S2 serves A,B,C;
   hub S3 shortens the C-D connection. *)
let fig6_instance () =
  let g = G.Wgraph.create 6 in
  let a = 0 and b = 1 and c = 2 and d = 3 and s2 = 4 and s3 = 5 in
  let ( += ) (u, v) w = ignore (G.Wgraph.add_edge g u v w) in
  (a, b) += 1.9;
  (b, c) += 1.9;
  (c, d) += 2.5;
  (s2, a) += 1.;
  (s2, b) += 1.;
  (s2, c) += 1.;
  (s3, c) += 1.;
  (s3, d) += 1.;
  (G.Gstate.of_builder g, [ a; b; c; d ], [ s2; s3 ])

let fig6 () =
  let g, terminals, hubs = fig6_instance () in
  let cache = G.Dist_cache.create g in
  let steiner = C.Igmst.steiner_nodes C.Igmst.kmb cache ~terminals in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Figure 6: IKMB execution trace (terminals A,B,C,D; hubs S2,S3)\n";
  let cost_with s = C.Kmb.cost cache ~terminals:(s @ terminals) in
  Buffer.add_string buf (Printf.sprintf "  initial KMB cost          : %.2f\n" (cost_with []));
  let rec walk accepted = function
    | [] -> ()
    | s :: rest ->
        let accepted = s :: accepted in
        Buffer.add_string buf
          (Printf.sprintf "  + Steiner node %s -> cost : %.2f\n"
             (if s = List.nth hubs 0 then "S2" else if s = List.nth hubs 1 then "S3" else string_of_int s)
             (cost_with accepted));
        walk accepted rest
  in
  walk [] (List.rev steiner);
  let final = C.Igmst.ikmb cache ~terminals in
  Buffer.add_string buf
    (Printf.sprintf "  final IKMB tree cost      : %.2f (KMB alone: %.2f)\n"
       (G.Tree.cost g final) (C.Kmb.cost cache ~terminals));
  Buffer.contents buf

let worst_case_table title header rows notes =
  let t = Tab.create ~title ~header in
  List.iter (Tab.add_row t) rows;
  List.iter (Tab.add_note t) notes;
  Tab.to_string t

let fig10 () =
  let rows =
    List.map
      (fun k ->
        let inst = C.Worst_case.pfa_graph ~k in
        let cache = G.Dist_cache.create inst.C.Worst_case.graph in
        let net = inst.C.Worst_case.net in
        let pfa = G.Tree.cost inst.C.Worst_case.graph (C.Pfa.solve cache ~net) in
        let idom = G.Tree.cost inst.C.Worst_case.graph (C.Idom.solve cache ~net) in
        let opt = inst.C.Worst_case.reference_cost in
        [
          string_of_int k;
          Printf.sprintf "%.2f" opt;
          Printf.sprintf "%.2f" pfa;
          Printf.sprintf "%.2f" (pfa /. opt);
          Printf.sprintf "%.2f" idom;
          Printf.sprintf "%.2f" (idom /. opt);
        ])
      [ 4; 6; 8; 12; 16 ]
  in
  worst_case_table "Figure 10: PFA's Theta(N) worst case on weighted graphs"
    [ "k sinks"; "OPT"; "PFA"; "PFA/OPT"; "IDOM"; "IDOM/OPT" ]
    rows
    [ "PFA's ratio grows linearly with k; IDOM solves these instances optimally (paper §4.2)." ]

let fig11 () =
  let rows =
    List.map
      (fun n ->
        let inst = C.Worst_case.pfa_grid ~n in
        let cache = G.Dist_cache.create inst.C.Worst_case.graph in
        let net = inst.C.Worst_case.net in
        let pfa = G.Tree.cost inst.C.Worst_case.graph (C.Pfa.solve cache ~net) in
        let opt = inst.C.Worst_case.reference_cost in
        [
          string_of_int n;
          Printf.sprintf "%.1f" opt;
          Printf.sprintf "%.1f" pfa;
          Printf.sprintf "%.3f" (pfa /. opt);
        ])
      [ 4; 8; 12; 16 ]
  in
  worst_case_table
    "Figure 11: PFA on the staircase family (horizontal spacing 1, vertical 2)"
    [ "n"; "OPT (interval DP)"; "PFA"; "PFA/OPT" ]
    rows
    [
      "RSA's merge order alone approaches 2x opt on staircases; PFA's final nearest-dominated \
       refold (Fig 9's output step) repairs them — see EXPERIMENTS.md.";
      "PFA remains within the proven [1,2] window, and is strictly suboptimal on congested \
       grids (test suite exhibits a 10x10 instance).";
    ]

(* Fig 13's walk-through: source A, sinks B..E; hub M1 folds B and C, hub
   M2 (one step beyond M1) folds D and E — IDOM accepts both in turn. *)
let fig13_instance () =
  let g = G.Wgraph.create 7 in
  let a = 0 and b = 1 and c = 2 and d = 3 and e = 4 and m1 = 5 and m2 = 6 in
  let ( += ) (u, v) w = ignore (G.Wgraph.add_edge g u v w) in
  (a, m1) += 2.;
  (m1, b) += 1.;
  (m1, c) += 1.;
  (m1, m2) += 1.;
  (m2, d) += 1.;
  (m2, e) += 1.;
  (a, b) += 3.;
  (a, c) += 3.;
  (a, d) += 4.;
  (a, e) += 4.;
  (G.Gstate.of_builder g, C.Net.make ~source:a ~sinks:[ b; c; d; e ], [ m1; m2 ])

let fig13 () =
  let g, net, hubs = fig13_instance () in
  ignore hubs;
  let cache = G.Dist_cache.create g in
  let trace = C.Idom.distance_graph_cost_trace cache ~net in
  let steiner = C.Idom.steiner_nodes cache ~net in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Figure 13: IDOM execution trace (source A; sinks B,C,D,E; hubs M1,M2)\n";
  Buffer.add_string buf
    (Printf.sprintf "  distance-graph cost trace : %s\n"
       (String.concat " -> " (List.map (Printf.sprintf "%.2f") trace)));
  Buffer.add_string buf
    (Printf.sprintf "  Steiner nodes accepted    : %s\n"
       (String.concat ", " (List.map (fun s -> if s = 5 then "M1" else if s = 6 then "M2" else string_of_int s) steiner)));
  let tree = C.Idom.solve cache ~net in
  Buffer.add_string buf
    (Printf.sprintf "  final IDOM tree cost      : %.2f (DOM alone: %.2f); pathlengths optimal: %b\n"
       (G.Tree.cost g tree)
       (G.Tree.cost g (C.Dom.solve cache ~net))
       (C.Eval.is_arborescence cache ~net ~tree));
  Buffer.contents buf

let fig14 () =
  let rows =
    List.map
      (fun levels ->
        let inst = C.Worst_case.idom_graph ~levels in
        let cache = G.Dist_cache.create inst.C.Worst_case.graph in
        let net = inst.C.Worst_case.net in
        let idom = G.Tree.cost inst.C.Worst_case.graph (C.Idom.solve cache ~net) in
        let opt = inst.C.Worst_case.reference_cost in
        let nsinks = List.length net.C.Net.sinks in
        [
          string_of_int levels;
          string_of_int nsinks;
          Printf.sprintf "%.3f" opt;
          Printf.sprintf "%.3f" idom;
          Printf.sprintf "%.2f" (idom /. opt);
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  worst_case_table "Figure 14: IDOM's Omega(log N) worst case (set-cover gadget)"
    [ "levels"; "N sinks"; "OPT"; "IDOM"; "IDOM/OPT" ]
    rows
    [
      "IDOM greedily picks the exponentially shrinking decoy boxes (cost ~ levels) while two \
       good boxes suffice (cost ~ 2) — consistent with the ln(n) set-cover hardness of GSA.";
    ]

(* busc at W=9, the minimum Table 2 measures for it: the paper's router
   needed 7, and our synthetic reconstruction routes at neither 7 nor 8. *)
let fig16 () =
  let spec = Option.get (F.Circuits.find_spec "busc") and w = 9 in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:w) in
  match F.Router.route rrg (F.Circuits.generate spec) with
  | Ok stats ->
      Printf.sprintf "Figure 16: routed busc at W=%d\n%s\n%s" w (F.Render.summary rrg stats)
        (F.Render.occupancy_map rrg)
  | Error f ->
      Printf.sprintf "Figure 16: busc unroutable at W=%d (%d nets failed)" w
        (List.length f.F.Router.failed_nets)
