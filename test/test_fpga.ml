(* Unit and integration tests for the FPGA substrate: architecture,
   routing-resource graph, netlists, benchmark circuits, and the router. *)

module G = Fr_graph
module C = Fr_core
module F = Fr_fpga
module Rng = Fr_util.Rng

let degree g u = G.Gstate.fold_adj g u (fun d _ _ _ -> d + 1) 0

let small_arch ?(w = 4) () = F.Arch.xc4000 ~rows:4 ~cols:5 ~channel_width:w

(* A tiny 3-net circuit on the 4x5 array. *)
let tiny_circuit () =
  let pin row col side slot = { F.Netlist.row; col; side; slot } in
  let nets =
    [
      F.Netlist.make_net ~name:"a" ~source:(pin 0 0 F.Rrg.East 0)
        ~sinks:[ pin 2 3 F.Rrg.West 0; pin 3 1 F.Rrg.North 0 ];
      F.Netlist.make_net ~name:"b" ~source:(pin 1 1 F.Rrg.South 0) ~sinks:[ pin 1 4 F.Rrg.South 0 ];
      F.Netlist.make_net ~name:"c" ~source:(pin 3 4 F.Rrg.North 1)
        ~sinks:[ pin 0 4 F.Rrg.East 1; pin 0 0 F.Rrg.West 1; pin 2 2 F.Rrg.East 0 ];
    ]
  in
  { F.Netlist.circuit_name = "tiny"; rows = 4; cols = 5; nets }

(* ------------------------------------------------------------------ *)
(* Arch                                                               *)
(* ------------------------------------------------------------------ *)

let test_arch_presets () =
  let a3 = F.Arch.xc3000 ~rows:12 ~cols:13 ~channel_width:10 in
  Alcotest.(check int) "3000 fs" 6 a3.F.Arch.fs;
  Alcotest.(check int) "3000 fc = ceil(0.6*10)" 6 a3.F.Arch.fc;
  let a4 = F.Arch.xc4000 ~rows:10 ~cols:9 ~channel_width:12 in
  Alcotest.(check int) "4000 fs" 3 a4.F.Arch.fs;
  Alcotest.(check int) "4000 fc = W" 12 a4.F.Arch.fc

let test_arch_rejects () =
  Alcotest.check_raises "bad width" (Invalid_argument "Arch.make: channel_width < 1") (fun () ->
      ignore (F.Arch.xc3000 ~rows:2 ~cols:2 ~channel_width:0));
  Alcotest.check_raises "bad rows" (Invalid_argument "Arch.make: non-positive array size")
    (fun () -> ignore (F.Arch.xc4000 ~rows:0 ~cols:2 ~channel_width:4))

(* ------------------------------------------------------------------ *)
(* Rrg                                                                *)
(* ------------------------------------------------------------------ *)

let test_rrg_node_counts () =
  let arch = small_arch () in
  let rrg = F.Rrg.build arch in
  (* hwires: (R+1)*C*W = 5*5*4 = 100; vwires: (C+1)*R*W = 6*4*4 = 96;
     pins: R*C*4*slots = 4*5*4*2 = 160. *)
  Alcotest.(check int) "wires" 196 (F.Rrg.num_wires rrg);
  Alcotest.(check int) "total nodes" 356 (G.Gstate.num_nodes rrg.F.Rrg.graph)

let test_rrg_kind_roundtrip () =
  let rrg = F.Rrg.build (small_arch ()) in
  let h = F.Rrg.hwire rrg ~y:3 ~x:2 ~track:1 in
  Alcotest.(check bool) "hwire kind" true (F.Rrg.kind rrg h = F.Rrg.Wire (F.Rrg.H (3, 2), 1));
  let v = F.Rrg.vwire rrg ~x:5 ~y:3 ~track:0 in
  Alcotest.(check bool) "vwire kind" true (F.Rrg.kind rrg v = F.Rrg.Wire (F.Rrg.V (5, 3), 0));
  let p = F.Rrg.pin rrg ~row:2 ~col:4 ~side:F.Rrg.West ~slot:1 in
  Alcotest.(check bool) "pin kind" true (F.Rrg.kind rrg p = F.Rrg.Pin (2, 4, F.Rrg.West, 1));
  Alcotest.(check bool) "pin is not wire" false (F.Rrg.is_wire rrg p);
  Alcotest.(check bool) "hwire is wire" true (F.Rrg.is_wire rrg h)

let test_rrg_bounds () =
  let rrg = F.Rrg.build (small_arch ()) in
  Alcotest.check_raises "hwire out of range" (Invalid_argument "Rrg.hwire_id: out of range")
    (fun () -> ignore (F.Rrg.hwire rrg ~y:6 ~x:0 ~track:0));
  Alcotest.check_raises "pin out of range" (Invalid_argument "Rrg.pin_id: out of range")
    (fun () -> ignore (F.Rrg.pin rrg ~row:4 ~col:0 ~side:F.Rrg.North ~slot:0))

let test_rrg_pin_fanout_fc () =
  (* fc = W on the 4000 series: each pin must reach exactly W wires. *)
  let rrg = F.Rrg.build (small_arch ~w:4 ()) in
  let p = F.Rrg.pin rrg ~row:1 ~col:2 ~side:F.Rrg.North ~slot:0 in
  Alcotest.(check int) "pin degree = fc" 4 (degree rrg.F.Rrg.graph p);
  (* all neighbors lie in the channel segment north of block (1,2): H(2,2) *)
  G.Gstate.iter_adj rrg.F.Rrg.graph p (fun _ v _ ->
      match F.Rrg.kind rrg v with
      | F.Rrg.Wire (F.Rrg.H (2, 2), _) -> ()
      | _ -> Alcotest.fail "pin connected to wrong segment")

let test_rrg_fc_less_than_w () =
  let arch = F.Arch.xc3000 ~rows:3 ~cols:3 ~channel_width:10 in
  (* fc = 6 *)
  let rrg = F.Rrg.build arch in
  let p = F.Rrg.pin rrg ~row:0 ~col:0 ~side:F.Rrg.North ~slot:0 in
  Alcotest.(check int) "pin degree = fc = 6" 6 (degree rrg.F.Rrg.graph p)

let test_rrg_switch_flexibility () =
  (* Interior wire of a 4000-series device (fs=3): at each of its two
     endpoint switch blocks it meets 3 other sides, 1 target each. *)
  let rrg = F.Rrg.build (small_arch ~w:4 ()) in
  let wire = F.Rrg.hwire rrg ~y:2 ~x:2 ~track:1 in
  let wire_neighbors =
    G.Gstate.fold_adj rrg.F.Rrg.graph wire
      (fun acc _ v _ -> if F.Rrg.is_wire rrg v then acc + 1 else acc)
      0
  in
  Alcotest.(check int) "interior wire meets fs per side" 6 wire_neighbors

let test_rrg_connected () =
  let rrg = F.Rrg.build (small_arch ()) in
  let r = G.Dijkstra.run rrg.F.Rrg.graph ~src:0 in
  let unreachable = ref 0 in
  for v = 0 to G.Gstate.num_nodes rrg.F.Rrg.graph - 1 do
    if not (G.Dijkstra.reachable r v) then incr unreachable
  done;
  Alcotest.(check int) "RRG fully connected" 0 !unreachable

let test_rrg_pos_and_segments () =
  let rrg = F.Rrg.build (small_arch ()) in
  let h = F.Rrg.hwire rrg ~y:1 ~x:3 ~track:0 in
  Alcotest.(check bool) "hwire pos" true (F.Rrg.pos rrg h = (3.5, 1.));
  Alcotest.(check bool) "segment_of_node" true
    (F.Rrg.segment_of_node rrg h = Some (F.Rrg.H (1, 3)));
  let segs = F.Rrg.segments rrg in
  (* horizontal: 5*5 = 25; vertical: 6*4 = 24 *)
  Alcotest.(check int) "segment count" 49 (List.length segs);
  Alcotest.(check int) "segment wires" 4 (List.length (F.Rrg.wires_of_segment rrg (F.Rrg.H (0, 0))));
  Alcotest.(check int) "occupancy starts 0" 0 (F.Rrg.segment_occupancy rrg (F.Rrg.H (0, 0)));
  G.Gstate.disable_node rrg.F.Rrg.graph (F.Rrg.hwire rrg ~y:0 ~x:0 ~track:2);
  Alcotest.(check int) "occupancy tracks disables" 1 (F.Rrg.segment_occupancy rrg (F.Rrg.H (0, 0)))

let test_rrg_path_cost_counts_wires () =
  (* A pin-to-pin route of cost c uses exactly c wire nodes (0.5 at each
     pin end, 1.0 per wire-wire hop). *)
  let rrg = F.Rrg.build (small_arch ()) in
  let a = F.Rrg.pin rrg ~row:0 ~col:0 ~side:F.Rrg.East ~slot:0 in
  let b = F.Rrg.pin rrg ~row:3 ~col:4 ~side:F.Rrg.West ~slot:0 in
  let r = G.Dijkstra.run rrg.F.Rrg.graph ~src:a in
  let cost = G.Dijkstra.dist r b in
  let wires =
    List.filter (F.Rrg.is_wire rrg) (G.Dijkstra.path_nodes r b) |> List.length
  in
  Alcotest.(check (float 1e-9)) "cost = wires used" (float_of_int wires) cost

(* ------------------------------------------------------------------ *)
(* Netlist                                                            *)
(* ------------------------------------------------------------------ *)

let test_netlist_validate () =
  let c = tiny_circuit () in
  Alcotest.(check bool) "valid" true (F.Netlist.validate c = Ok ());
  let bad =
    {
      c with
      F.Netlist.nets =
        [
          F.Netlist.make_net ~name:"x"
            ~source:{ F.Netlist.row = 9; col = 0; side = F.Rrg.North; slot = 0 }
            ~sinks:[ { F.Netlist.row = 0; col = 0; side = F.Rrg.South; slot = 0 } ];
        ];
    }
  in
  Alcotest.(check bool) "out of bounds rejected" true (F.Netlist.validate bad <> Ok ())

let test_netlist_shared_pin_rejected () =
  let p = { F.Netlist.row = 0; col = 0; side = F.Rrg.North; slot = 0 } in
  let q = { F.Netlist.row = 1; col = 1; side = F.Rrg.North; slot = 0 } in
  let r = { F.Netlist.row = 2; col = 2; side = F.Rrg.North; slot = 0 } in
  let c =
    {
      F.Netlist.circuit_name = "dup";
      rows = 4;
      cols = 5;
      nets =
        [
          F.Netlist.make_net ~name:"a" ~source:p ~sinks:[ q ];
          F.Netlist.make_net ~name:"b" ~source:p ~sinks:[ r ];
        ];
    }
  in
  Alcotest.(check bool) "shared pin rejected" true (F.Netlist.validate c <> Ok ())

let test_netlist_histogram () =
  let s, m, l = F.Netlist.pin_histogram (tiny_circuit ()) in
  Alcotest.(check (list int)) "histogram" [ 2; 1; 0 ] [ s; m; l ]

let test_netlist_roundtrip () =
  let c = tiny_circuit () in
  let text = F.Netlist.to_string c in
  match F.Netlist.of_string text with
  | Error e -> Alcotest.fail e
  | Ok c' ->
      Alcotest.(check string) "name" c.F.Netlist.circuit_name c'.F.Netlist.circuit_name;
      Alcotest.(check int) "nets" (List.length c.F.Netlist.nets) (List.length c'.F.Netlist.nets);
      Alcotest.(check bool) "identical" true (c = c')

let test_netlist_parse_errors () =
  Alcotest.(check bool) "empty" true (F.Netlist.of_string "" = Error "empty netlist");
  Alcotest.(check bool) "bad header" true
    (match F.Netlist.of_string "circus x 3 3\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad pin" true
    (match F.Netlist.of_string "circuit x 3 3\nnet n 0,0,Q,0 1,1,N,0\n" with
    | Error _ -> true
    | Ok _ -> false)

let test_netlist_bbox () =
  let n = List.nth (tiny_circuit ()).F.Netlist.nets 0 in
  Alcotest.(check bool) "bbox" true (F.Netlist.bounding_box n = (0, 0, 3, 3))

(* Random circuits (valid by construction) must round-trip through the
   textual format. *)
let prop_netlist_roundtrip =
  QCheck.Test.make ~name:"netlist text format round-trips" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let module Rng = Fr_util.Rng in
      let rng = Rng.make seed in
      let rows = 3 + Rng.int rng 5 and cols = 3 + Rng.int rng 5 in
      let taken = Hashtbl.create 64 in
      let rand_pin () =
        let rec draw tries =
          if tries > 200 then None
          else begin
            let p =
              {
                F.Netlist.row = Rng.int rng rows;
                col = Rng.int rng cols;
                side = List.nth F.Rrg.all_sides (Rng.int rng 4);
                slot = Rng.int rng 2;
              }
            in
            if Hashtbl.mem taken p then draw (tries + 1)
            else begin
              Hashtbl.add taken p ();
              Some p
            end
          end
        in
        draw 0
      in
      let nets = ref [] in
      let n_nets = 1 + Rng.int rng 6 in
      for i = 0 to n_nets - 1 do
        let k = 2 + Rng.int rng 4 in
        let pins = List.filter_map (fun _ -> rand_pin ()) (List.init k (fun x -> x)) in
        match pins with
        | source :: (_ :: _ as sinks) ->
            nets := F.Netlist.make_net ~name:(Printf.sprintf "n%d" i) ~source ~sinks :: !nets
        | _ -> ()
      done;
      let c = { F.Netlist.circuit_name = "rand"; rows; cols; nets = List.rev !nets } in
      match F.Netlist.of_string (F.Netlist.to_string c) with
      | Ok c' -> c = c' && F.Netlist.validate c = Ok ()
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Circuits                                                           *)
(* ------------------------------------------------------------------ *)

let test_specs_complete () =
  Alcotest.(check int) "5 + 9 circuits" 14 (List.length F.Circuits.all_specs);
  (* Totals from the paper's tables. *)
  let total3 = List.fold_left (fun a s -> a + F.Circuits.total_nets s) 0 F.Circuits.specs_3000 in
  Alcotest.(check int) "3000-series total nets" 1744 total3;
  let total4 = List.fold_left (fun a s -> a + F.Circuits.total_nets s) 0 F.Circuits.specs_4000 in
  Alcotest.(check int) "4000-series total nets" 1710 total4;
  let sum f = List.fold_left (fun a s -> a + f s) 0 F.Circuits.specs_4000 in
  Alcotest.(check int) "4000 small" 1154 (sum (fun s -> s.F.Circuits.nets_small));
  Alcotest.(check int) "4000 medium" 454 (sum (fun s -> s.F.Circuits.nets_medium));
  Alcotest.(check int) "4000 large" 102 (sum (fun s -> s.F.Circuits.nets_large))

let test_published_totals () =
  let sum get =
    List.fold_left
      (fun a s -> a + match get s.F.Circuits.published with Some x -> x | None -> 0)
      0 F.Circuits.specs_4000
  in
  Alcotest.(check int) "SEGA total 118" 118 (sum (fun p -> p.F.Circuits.sega));
  Alcotest.(check int) "GBP total 110" 110 (sum (fun p -> p.F.Circuits.gbp));
  Alcotest.(check int) "paper IKMB total 94" 94 (sum (fun p -> p.F.Circuits.ours_ikmb));
  Alcotest.(check int) "paper PFA total 110" 110 (sum (fun p -> p.F.Circuits.ours_pfa));
  Alcotest.(check int) "paper IDOM total 106" 106 (sum (fun p -> p.F.Circuits.ours_idom));
  let sum3 get =
    List.fold_left
      (fun a s -> a + match get s.F.Circuits.published with Some x -> x | None -> 0)
      0 F.Circuits.specs_3000
  in
  Alcotest.(check int) "CGE total 55" 55 (sum3 (fun p -> p.F.Circuits.cge));
  Alcotest.(check int) "paper 3000 IKMB total 45" 45 (sum3 (fun p -> p.F.Circuits.ours_ikmb))

let test_generate_matches_stats () =
  (* All fourteen circuits: valid, exact published histograms. *)
  List.iter
    (fun spec ->
      let name = spec.F.Circuits.circuit in
      let c = F.Circuits.generate spec in
      Alcotest.(check bool) (name ^ " valid") true (F.Netlist.validate c = Ok ());
      let s, m, l = F.Netlist.pin_histogram c in
      Alcotest.(check (list int))
        (name ^ " histogram")
        [ spec.F.Circuits.nets_small; spec.F.Circuits.nets_medium; spec.F.Circuits.nets_large ]
        [ s; m; l ];
      Alcotest.(check int) (name ^ " rows") spec.F.Circuits.rows c.F.Netlist.rows;
      Alcotest.(check int) (name ^ " nets") (F.Circuits.total_nets spec)
        (List.length c.F.Netlist.nets))
    F.Circuits.all_specs

let test_generate_deterministic () =
  let spec = Option.get (F.Circuits.find_spec "apex7") in
  let a = F.Circuits.generate spec and b = F.Circuits.generate spec in
  Alcotest.(check bool) "same circuit twice" true (a = b)

let test_find_spec () =
  Alcotest.(check bool) "case-insensitive" true (F.Circuits.find_spec "BUSC" <> None);
  Alcotest.(check bool) "unknown" true (F.Circuits.find_spec "nope" = None)

let test_on_disk_netlists_match_generator () =
  (* The shipped circuits/*.net files are exactly what the deterministic
     generator produces. *)
  let read_all path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  List.iter
    (fun name ->
      let candidates = [ "../circuits/" ^ name ^ ".net"; "circuits/" ^ name ^ ".net" ] in
      let path =
        match List.find_opt Sys.file_exists candidates with Some p -> p | None -> ""
      in
      if path <> "" then begin
        match F.Netlist.of_string (read_all path) with
        | Error e -> Alcotest.fail (name ^ ": " ^ e)
        | Ok c ->
            let spec = Option.get (F.Circuits.find_spec name) in
            Alcotest.(check bool) (name ^ " matches generator") true
              (c = F.Circuits.generate spec)
      end)
    [ "term1"; "busc"; "k2" ]

(* ------------------------------------------------------------------ *)
(* Router                                                             *)
(* ------------------------------------------------------------------ *)

let routed_ok stats circuit =
  List.length stats.F.Router.routed = List.length circuit.F.Netlist.nets

let test_router_tiny () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ()) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "tiny circuit should route"
  | Ok stats ->
      Alcotest.(check bool) "all nets routed" true (routed_ok stats circuit);
      Alcotest.(check bool) "wirelength positive" true (stats.F.Router.total_wirelength > 0.);
      Alcotest.(check bool) "peak occupancy within W" true (stats.F.Router.peak_occupancy <= 4)

let test_router_disjoint_resources () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ()) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "should route"
  | Ok stats ->
      (* No wire node is used by two nets. *)
      let seen = Hashtbl.create 64 in
      List.iter
        (fun r ->
          List.iter
            (fun v ->
              if F.Rrg.is_wire rrg v then begin
                if Hashtbl.mem seen v then Alcotest.fail "wire shared between nets";
                Hashtbl.add seen v r.F.Router.net.F.Netlist.net_name
              end)
            (G.Tree.nodes rrg.F.Rrg.graph r.F.Router.tree))
        stats.F.Router.routed

let test_router_trees_span_their_nets () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ()) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "should route"
  | Ok stats ->
      List.iter
        (fun r ->
          let cnet = F.Netlist.rrg_net rrg r.F.Router.net in
          Alcotest.(check bool)
            (r.F.Router.net.F.Netlist.net_name ^ " spans")
            true
            (G.Tree.spans rrg.F.Rrg.graph r.F.Router.tree (C.Net.terminals cnet));
          Alcotest.(check bool)
            (r.F.Router.net.F.Netlist.net_name ^ " is tree")
            true
            (G.Tree.is_tree rrg.F.Rrg.graph r.F.Router.tree))
        stats.F.Router.routed

let test_router_infeasible_width () =
  (* W=1 cannot route the tiny circuit's crossing nets. *)
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ~w:1 ()) in
  let config = F.Router.config_with ~max_passes:3 () in
  match F.Router.route ~config rrg circuit with
  | Ok _ -> Alcotest.fail "W=1 should be infeasible"
  | Error f ->
      Alcotest.(check bool) "passes tried" true (f.F.Router.passes_tried = 3);
      Alcotest.(check bool) "failed nets reported" true (f.F.Router.failed_nets <> [])

let test_max_path_unspanned_sink_raises () =
  (* A path-graph "tree" 0-1-2 does not span sink 3: measuring it must
     raise instead of silently skipping the sink (the old behavior
     under-reported pathlength). *)
  let g = G.Wgraph.create 4 in
  let e01 = G.Wgraph.add_edge g 0 1 1. in
  let e12 = G.Wgraph.add_edge g 1 2 1. in
  ignore (G.Wgraph.add_edge g 2 3 1.);
  let g = G.Gstate.of_builder g in
  let tree = G.Tree.of_edges [ e01; e12 ] in
  let weight e = G.Gstate.weight g e in
  Alcotest.(check (float 1e-9))
    "spanned sinks measured" 2.
    (G.Tree.max_path_length ~weight g tree ~src:0 ~sinks:[ 1; 2 ]);
  Alcotest.check_raises "unspanned sink raises"
    (Invalid_argument "Tree.max_path_length: sink 3 not in tree") (fun () ->
      ignore (G.Tree.max_path_length ~weight g tree ~src:0 ~sinks:[ 2; 3 ]))

let test_router_min_channel_width () =
  let circuit = tiny_circuit () in
  let arch_of_width w = F.Arch.xc4000 ~rows:4 ~cols:5 ~channel_width:w in
  match
    F.Router.min_channel_width ~arch_of_width ~circuit ~start:4 ()
  with
  | None -> Alcotest.fail "should find a width"
  | Some (w, stats) ->
      Alcotest.(check bool) "w >= 1" true (w >= 1);
      Alcotest.(check bool) "w <= 4" true (w <= 4);
      Alcotest.(check bool) "routed" true (routed_ok stats circuit);
      (* Minimality: w-1 must fail. *)
      if w > 1 then begin
        let rrg = F.Rrg.build (arch_of_width (w - 1)) in
        match F.Router.route rrg circuit with
        | Ok _ -> Alcotest.fail "w-1 should fail"
        | Error _ -> ()
      end

(* The gallop gives up at [start + 15]: with an architecture that never
   routes (W=1 fails the tiny circuit, whatever width is asked for), the
   probes climb from [start] with doubling steps and end on the cap
   itself.  A [start] above the minimum steps down one width at a time
   and pays for exactly one failing probe, the width below the minimum. *)
let test_router_min_width_respects_cap () =
  let circuit = tiny_circuit () in
  let arch_of_width w = F.Arch.xc4000 ~rows:4 ~cols:5 ~channel_width:w in
  let wmin =
    match F.Router.min_channel_width ~arch_of_width ~circuit ~start:4 () with
    | Some (w, _) -> w
    | None -> Alcotest.fail "tiny circuit should route"
  in
  let probes = ref [] in
  let recording arch_of_width w =
    probes := w :: !probes;
    arch_of_width w
  in
  let never_routes = recording (fun _ -> arch_of_width 1) in
  (match F.Router.min_channel_width ~arch_of_width:never_routes ~circuit ~start:3 () with
  | Some (w, _) -> Alcotest.failf "reported width %d on an unroutable architecture" w
  | None -> ());
  Alcotest.(check (list int)) "probes stop at start + 15" [ 3; 4; 6; 10; 18 ] (List.rev !probes);
  probes := [];
  (match
     F.Router.min_channel_width ~arch_of_width:(recording arch_of_width) ~circuit
       ~start:(wmin + 9) ()
   with
  | Some (w, _) -> Alcotest.(check int) "start above the minimum steps down to it" wmin w
  | None -> Alcotest.fail "a routable start must find the minimum");
  Alcotest.(check (list int)) "one width at a time, one failing probe"
    (List.init 10 (fun i -> wmin + 9 - i) @ if wmin > 1 then [ wmin - 1 ] else [])
    (List.rev !probes);
  Alcotest.check_raises "start < 1"
    (Invalid_argument "Router.min_channel_width: start must be >= 1") (fun () ->
      ignore (F.Router.min_channel_width ~arch_of_width ~circuit ~start:0 ()))

(* A one-net circuit on the tiny circuit's array, on pins the tiny circuit
   leaves free, so it can route on a graph the tiny circuit was routed on. *)
let one_net_circuit () =
  let pin row col side slot = { F.Netlist.row; col; side; slot } in
  {
    F.Netlist.circuit_name = "one";
    rows = 4;
    cols = 5;
    nets =
      [
        F.Netlist.make_net ~name:"d" ~source:(pin 2 0 F.Rrg.South 0)
          ~sinks:[ pin 2 1 F.Rrg.South 0 ];
      ];
  }

(* Work counters are per-call: a second route on the same graph reports its
   own (smaller) work, not the state's lifetime totals — the old cumulative
   journal_depth high-water mark would make the second call's reading >=
   the first's. *)
let test_router_stats_per_call () =
  let rrg = F.Rrg.build (small_arch ~w:6 ()) in
  let first =
    match F.Router.route rrg (tiny_circuit ()) with
    | Ok s -> s
    | Error _ -> Alcotest.fail "first route failed"
  in
  match F.Router.route rrg (one_net_circuit ()) with
  | Error _ -> Alcotest.fail "second route failed"
  | Ok second ->
      Alcotest.(check bool) "second call counts its own searches" true
        (second.F.Router.dijkstra_runs > 0
        && second.F.Router.dijkstra_runs < first.F.Router.dijkstra_runs);
      Alcotest.(check bool) "second call settles its own nodes" true
        (second.F.Router.settled_nodes > 0
        && second.F.Router.settled_nodes < first.F.Router.settled_nodes);
      Alcotest.(check bool) "journal peak is per-call" true
        (second.F.Router.journal_depth > 0
        && second.F.Router.journal_depth < first.F.Router.journal_depth);
      Alcotest.(check bool) "mutations are per-call" true
        (second.F.Router.mutations > 0 && second.F.Router.mutations < first.F.Router.mutations)

(* A scratch route is a session opened and closed: on [Ok] and on [Error],
   in both modes, it commits the journal at the session base, so nothing it
   wrote stays undoable and the graph takes a second route. *)
let test_router_route_commits_journal () =
  List.iter
    (fun (mode, w, ok) ->
      let what s =
        Printf.sprintf "%s, W=%d: %s"
          (match mode with F.Router.Waves -> "waves" | F.Router.Negotiated -> "negotiated")
          w s
      in
      let rrg = F.Rrg.build (small_arch ~w ()) in
      let g = rrg.F.Rrg.graph in
      let config = F.Router.config_with ~mode ~max_passes:3 () in
      Alcotest.(check bool)
        (what "first route result") ok
        (Result.is_ok (F.Router.route ~config rrg (tiny_circuit ())));
      Alcotest.(check int) (what "journal empty after the first route") 0
        (G.Gstate.journal_depth g);
      Alcotest.(check bool)
        (what "second route succeeds") true
        (Result.is_ok (F.Router.route ~config rrg (one_net_circuit ())));
      Alcotest.(check int) (what "journal empty after the second route") 0
        (G.Gstate.journal_depth g))
    [
      (F.Router.Waves, 6, true);
      (F.Router.Waves, 1, false);
      (F.Router.Negotiated, 6, true);
      (F.Router.Negotiated, 1, false);
    ]

let test_router_strategies_agree_on_feasibility () =
  let circuit = tiny_circuit () in
  List.iter
    (fun (name, config) ->
      let rrg = F.Rrg.build (small_arch ()) in
      match F.Router.route ~config rrg circuit with
      | Ok stats -> Alcotest.(check bool) (name ^ " routed") true (routed_ok stats circuit)
      | Error _ -> Alcotest.fail (name ^ " failed on the tiny circuit"))
    [
      ("ikmb", F.Router.default_config);
      ("pfa", F.Router.config_with ~alg:C.Routing_alg.pfa ());
      ("idom", F.Router.config_with ~alg:C.Routing_alg.idom ());
      ("djka", F.Router.config_with ~alg:C.Routing_alg.djka ());
      ("two-pin", { F.Router.default_config with F.Router.strategy = F.Router.Two_pin_decomposition });
    ]

let test_router_two_pin_uses_more_wire () =
  let circuit = tiny_circuit () in
  let run config =
    let rrg = F.Rrg.build (small_arch ~w:6 ()) in
    match F.Router.route ~config rrg circuit with
    | Ok stats -> stats.F.Router.total_wirelength
    | Error _ -> Alcotest.fail "route failed"
  in
  let tree_wire = run F.Router.default_config in
  let twopin_wire =
    run { F.Router.default_config with F.Router.strategy = F.Router.Two_pin_decomposition }
  in
  Alcotest.(check bool)
    (Printf.sprintf "two-pin (%.0f) >= tree (%.0f)" twopin_wire tree_wire)
    true (twopin_wire >= tree_wire)

let test_router_rejects_mismatched_circuit () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (F.Arch.xc4000 ~rows:3 ~cols:3 ~channel_width:4) in
  Alcotest.check_raises "bad fit" (Invalid_argument "Router.route: circuit does not fit architecture")
    (fun () -> ignore (F.Router.route rrg circuit))

let test_router_congestion_pressure () =
  (* After routing, consumed wires are disabled, their segments' occupancy
     rises, and surviving edges near the touched segments got heavier than
     their base weight. *)
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ()) in
  let g = rrg.F.Rrg.graph in
  let base_weights = Array.init (G.Gstate.num_edges g) (G.Gstate.weight g) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "should route"
  | Ok stats ->
      let r = List.hd stats.F.Router.routed in
      let tree_nodes = G.Tree.nodes g r.F.Router.tree in
      List.iter
        (fun v ->
          if F.Rrg.is_wire rrg v then begin
            Alcotest.(check bool) "consumed wire disabled" false (G.Gstate.node_enabled g v);
            match F.Rrg.segment_of_node rrg v with
            | Some seg ->
                Alcotest.(check bool) "segment occupancy > 0" true
                  (F.Rrg.segment_occupancy rrg seg > 0)
            | None -> ()
          end)
        tree_nodes;
      let heavier = ref 0 in
      for e = 0 to G.Gstate.num_edges g - 1 do
        if G.Gstate.weight g e > base_weights.(e) +. 1e-9 then incr heavier
      done;
      Alcotest.(check bool) "congestion raised some weights" true (!heavier > 0)

let test_router_mixed_criticality () =
  (* Nets marked critical are routed with the critical algorithm: their
     trees must satisfy the GSA property w.r.t. the graph state at routing
     time — we verify the weaker but state-independent property that the
     routing completes and every critical-net tree has its pins on
     shortest paths within the tree (spanning + validity), while the mixed
     run's total wirelength differs from the pure-IKMB run's. *)
  let circuit = tiny_circuit () in
  let critical net = net.F.Netlist.net_name = "c" in
  let config = { F.Router.default_config with F.Router.critical_strategy = Some critical } in
  let rrg = F.Rrg.build (small_arch ~w:6 ()) in
  match F.Router.route ~config rrg circuit with
  | Error _ -> Alcotest.fail "mixed run should route"
  | Ok stats ->
      Alcotest.(check bool) "all routed" true (routed_ok stats circuit);
      let crit = List.find (fun r -> r.F.Router.net.F.Netlist.net_name = "c") stats.F.Router.routed in
      Alcotest.(check bool) "critical net routed as a tree" true
        (G.Tree.is_tree rrg.F.Rrg.graph crit.F.Router.tree)

(* §4.8 soundness: the RRG's future-cost bound must be admissible
   (h(v) never exceeds the true remaining distance to the nearest target,
   at every node, for any target set) and consistent (h drops by at most
   the edge weight across every enabled edge) — in the base-cost state
   and after negotiated-congestion pricing has multiplied the edge
   weights. *)
let prop_rrg_future_cost_sound =
  QCheck.Test.make ~name:"future_cost admissible + consistent" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let rows = 2 + Rng.int rng 3 and cols = 2 + Rng.int rng 3 in
      let w = 2 + Rng.int rng 3 in
      let mk = if Random.State.bool rng then F.Arch.xc4000 else F.Arch.xc3000 in
      let rrg = F.Rrg.build (mk ~rows ~cols ~channel_width:w) in
      let g = rrg.F.Rrg.graph in
      let n = G.Gstate.num_nodes g in
      let targets =
        List.sort_uniq compare (List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n))
      in
      let check state =
        let h = G.Dijkstra.heuristic_eval (F.Rrg.future_cost rrg ~targets) in
        let best = Array.make n infinity in
        List.iter
          (fun t ->
            let r = G.Dijkstra.run g ~src:t in
            for v = 0 to n - 1 do
              if G.Dijkstra.dist r v < best.(v) then best.(v) <- G.Dijkstra.dist r v
            done)
          targets;
        for v = 0 to n - 1 do
          if h v > best.(v) +. 1e-9 then
            QCheck.Test.fail_reportf "%s: h %.3f > dist %.3f at node %d" state (h v) best.(v) v
        done;
        (* iter_edges yields only enabled edges with enabled endpoints *)
        G.Gstate.iter_edges g (fun e u v wt ->
            if h u > wt +. h v +. 1e-9 || h v > wt +. h u +. 1e-9 then
              QCheck.Test.fail_reportf "%s: inconsistent across edge %d (%d-%d)" state e u v)
      in
      check "base";
      (* Price the graph the way negotiated mode would: a few overlapping
         fake nets, one sub-gradient escalation, prices applied. *)
      let cm = G.Cost_model.create g in
      for _ = 1 to 3 do
        G.Cost_model.use_nodes cm (List.init 8 (fun _ -> Rng.int rng n))
      done;
      G.Cost_model.escalate cm;
      G.Cost_model.apply cm;
      check "priced";
      true)

(* The precomputed node geometry must agree, node for node, with the
   position decoded from each node's kind, and the heuristic built on it
   must be bit for bit the reference Manhattan formula: the searches and
   the bounding-box pruning read the arrays, never the decode. *)
let prop_rrg_geometry_matches_kind =
  QCheck.Test.make ~name:"pos = decoded kind, future_cost = Manhattan formula" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let w = 1 + Rng.int rng 5 in
      let mk = if Random.State.bool rng then F.Arch.xc4000 else F.Arch.xc3000 in
      let arch = mk ~rows:(1 + Rng.int rng 5) ~cols:(1 + Rng.int rng 5) ~channel_width:w in
      let rrg = F.Rrg.build arch in
      let n = G.Gstate.num_nodes rrg.F.Rrg.graph in
      let decoded v =
        match F.Rrg.kind rrg v with
        | F.Rrg.Wire (F.Rrg.H (y, x), _) -> (float_of_int x +. 0.5, float_of_int y)
        | F.Rrg.Wire (F.Rrg.V (x, y), _) -> (float_of_int x, float_of_int y +. 0.5)
        | F.Rrg.Pin (row, col, _, _) -> (float_of_int col +. 0.5, float_of_int row +. 0.5)
      in
      for v = 0 to n - 1 do
        if F.Rrg.pos rrg v <> decoded v then QCheck.Test.fail_reportf "pos differs at node %d" v
      done;
      let scale = rrg.F.Rrg.min_unit_cost in
      if scale <> 1.0 then QCheck.Test.fail_reportf "min_unit_cost %g, expected 1" scale;
      let reference targets v =
        let x, y = decoded v in
        let best =
          List.fold_left
            (fun best t ->
              let tx, ty = decoded t in
              let d = abs_float (x -. tx) +. abs_float (y -. ty) in
              if d < best then d else best)
            infinity targets
        in
        if targets = [] then 0. else scale *. best
      in
      List.iter
        (fun targets ->
          let h = G.Dijkstra.heuristic_eval (F.Rrg.future_cost rrg ~targets) in
          for v = 0 to n - 1 do
            if Int64.bits_of_float (h v) <> Int64.bits_of_float (reference targets v) then
              QCheck.Test.fail_reportf "future_cost differs at node %d" v
          done)
        [ []; List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n) ];
      (match F.Rrg.pos rrg n with
      | _ -> QCheck.Test.fail_report "pos accepted an out-of-range node"
      | exception Invalid_argument _ -> ());
      true)

let test_router_benchmark_integration () =
  (* Full integration: route the whole synthetic term1 at a generous width. *)
  let spec = Option.get (F.Circuits.find_spec "term1") in
  let circuit = F.Circuits.generate spec in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:12) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "term1 should route at W=12"
  | Ok stats ->
      Alcotest.(check int) "all 88 nets" 88 (List.length stats.F.Router.routed);
      Alcotest.(check bool) "few passes" true (stats.F.Router.passes <= 5)

(* ------------------------------------------------------------------ *)
(* Render                                                             *)
(* ------------------------------------------------------------------ *)

let test_render_occupancy () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (small_arch ()) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "should route"
  | Ok stats ->
      let map = F.Render.occupancy_map rrg in
      Alcotest.(check bool) "has blocks" true (String.length map > 100);
      let summary = F.Render.summary rrg stats in
      Alcotest.(check bool) "summary mentions nets" true
        (String.length summary > 0 && stats.F.Router.passes >= 1)

let () =
  Alcotest.run "fr_fpga"
    [
      ( "arch",
        [
          Alcotest.test_case "presets" `Quick test_arch_presets;
          Alcotest.test_case "rejects" `Quick test_arch_rejects;
        ] );
      ( "rrg",
        [
          Alcotest.test_case "node counts" `Quick test_rrg_node_counts;
          Alcotest.test_case "kind roundtrip" `Quick test_rrg_kind_roundtrip;
          Alcotest.test_case "bounds" `Quick test_rrg_bounds;
          Alcotest.test_case "pin fanout = fc (4000)" `Quick test_rrg_pin_fanout_fc;
          Alcotest.test_case "pin fanout = fc (3000)" `Quick test_rrg_fc_less_than_w;
          Alcotest.test_case "switch flexibility" `Quick test_rrg_switch_flexibility;
          Alcotest.test_case "connected" `Quick test_rrg_connected;
          Alcotest.test_case "pos & segments" `Quick test_rrg_pos_and_segments;
          Alcotest.test_case "cost counts wires" `Quick test_rrg_path_cost_counts_wires;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "validate" `Quick test_netlist_validate;
          Alcotest.test_case "shared pin rejected" `Quick test_netlist_shared_pin_rejected;
          Alcotest.test_case "histogram" `Quick test_netlist_histogram;
          Alcotest.test_case "roundtrip" `Quick test_netlist_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_netlist_parse_errors;
          Alcotest.test_case "bounding box" `Quick test_netlist_bbox;
          QCheck_alcotest.to_alcotest prop_netlist_roundtrip;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "specs complete" `Quick test_specs_complete;
          Alcotest.test_case "published totals" `Quick test_published_totals;
          Alcotest.test_case "generator matches stats" `Quick test_generate_matches_stats;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "find_spec" `Quick test_find_spec;
          Alcotest.test_case "on-disk netlists" `Quick test_on_disk_netlists_match_generator;
        ] );
      ( "router",
        [
          Alcotest.test_case "tiny circuit" `Quick test_router_tiny;
          Alcotest.test_case "electrically disjoint" `Quick test_router_disjoint_resources;
          Alcotest.test_case "trees span nets" `Quick test_router_trees_span_their_nets;
          Alcotest.test_case "infeasible width" `Quick test_router_infeasible_width;
          Alcotest.test_case "unspanned sink raises" `Quick test_max_path_unspanned_sink_raises;
          Alcotest.test_case "min channel width" `Quick test_router_min_channel_width;
          Alcotest.test_case "min width respects cap" `Quick test_router_min_width_respects_cap;
          Alcotest.test_case "stats are per-call" `Quick test_router_stats_per_call;
          Alcotest.test_case "route commits its journal" `Quick test_router_route_commits_journal;
          Alcotest.test_case "all strategies" `Quick test_router_strategies_agree_on_feasibility;
          Alcotest.test_case "two-pin wastes wire" `Quick test_router_two_pin_uses_more_wire;
          Alcotest.test_case "mismatched circuit" `Quick test_router_rejects_mismatched_circuit;
          Alcotest.test_case "congestion pressure" `Quick test_router_congestion_pressure;
          Alcotest.test_case "mixed criticality" `Quick test_router_mixed_criticality;
          QCheck_alcotest.to_alcotest prop_rrg_future_cost_sound;
          QCheck_alcotest.to_alcotest prop_rrg_geometry_matches_kind;
          Alcotest.test_case "term1 integration" `Slow test_router_benchmark_integration;
        ] );
      ( "render",
        [
          Alcotest.test_case "occupancy map" `Quick test_render_occupancy;
        ] );
    ]
