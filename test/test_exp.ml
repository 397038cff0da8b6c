(* Tests for the experiment harnesses (small configurations). *)

module G = Fr_graph
module C = Fr_core
module E = Fr_exp
module Rng = Fr_util.Rng

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Congestion model                                                   *)
(* ------------------------------------------------------------------ *)

let test_congestion_levels () =
  Alcotest.(check (list (pair string int)))
    "levels"
    [ ("none", 0); ("low", 10); ("medium", 20) ]
    E.Congestion.levels

let test_congestion_none () =
  let grid = E.Congestion.congested_grid (Rng.make 1) ~k:0 in
  Alcotest.(check (float 1e-9)) "w = 1.00" 1. (G.Gstate.mean_edge_weight grid.G.Grid.graph)

let test_congestion_calibration () =
  (* The paper reports w ~ 1.28 at k=10 and w ~ 1.55 at k=20; our model
     must land in the same band. *)
  let mean k seed =
    G.Gstate.mean_edge_weight (E.Congestion.congested_grid (Rng.make seed) ~k).G.Grid.graph
  in
  let avg k = Fr_util.Stats.mean (List.map (mean k) [ 1; 2; 3; 4; 5 ]) in
  let w10 = avg 10 and w20 = avg 20 in
  Alcotest.(check bool)
    (Printf.sprintf "k=10 -> w=%.2f in [1.15,1.45]" w10)
    true
    (w10 > 1.15 && w10 < 1.45);
  Alcotest.(check bool)
    (Printf.sprintf "k=20 -> w=%.2f in [1.35,1.75]" w20)
    true
    (w20 > 1.35 && w20 < 1.75)

let test_congestion_size_override () =
  let grid = E.Congestion.congested_grid ~width:8 ~height:6 (Rng.make 2) ~k:3 in
  Alcotest.(check int) "nodes" 48 (G.Gstate.num_nodes grid.G.Grid.graph)

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let sections = lazy (E.Table1.run ~nets_per_config:4 ~seed:9 ~sizes:[ 5 ] ())

let test_table1_structure () =
  let s = Lazy.force sections in
  Alcotest.(check int) "three congestion levels" 3 (List.length s);
  List.iter
    (fun sec ->
      Alcotest.(check int) "one net size" 1 (List.length sec.E.Table1.by_size);
      let _, rows = List.hd sec.E.Table1.by_size in
      Alcotest.(check int) "eight algorithms" 8 (List.length rows))
    s

let test_table1_invariants () =
  let s = Lazy.force sections in
  List.iter
    (fun sec ->
      let _, rows = List.hd sec.E.Table1.by_size in
      let find name = List.find (fun r -> r.E.Table1.alg = name) rows in
      (* KMB is its own wirelength reference. *)
      Alcotest.(check (float 1e-9)) "KMB wire = 0" 0. (find "KMB").E.Table1.wire_pct;
      (* Arborescence algorithms have optimal pathlength. *)
      List.iter
        (fun name ->
          Alcotest.(check (float 1e-6)) (name ^ " path = 0") 0. (find name).E.Table1.path_pct)
        [ "DJKA"; "DOM"; "PFA"; "IDOM" ];
      (* The iterated construction never loses to its base. *)
      Alcotest.(check bool) "IKMB <= KMB" true ((find "IKMB").E.Table1.wire_pct <= 1e-9);
      (* Steiner algorithms' pathlengths are suboptimal on average. *)
      Alcotest.(check bool) "KMB path >= 0" true ((find "KMB").E.Table1.path_pct >= 0.))
    s

let test_table1_weights_rise_with_k () =
  let s = Lazy.force sections in
  let w level = (List.find (fun x -> x.E.Table1.level = level) s).E.Table1.mean_edge_weight in
  Alcotest.(check bool) "none < low < medium" true (w "none" < w "low" && w "low" < w "medium")

let test_table1_render () =
  let s = Lazy.force sections in
  let text = Fr_util.Tab.to_string (E.Table1.to_table s) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
    [ "Table 1"; "IDOM"; "IZEL"; "medium" ]

(* ------------------------------------------------------------------ *)
(* Paper data                                                          *)
(* ------------------------------------------------------------------ *)

let test_paper_data_lookup () =
  (match E.Paper_data.table1_row ~level:"none" ~alg:"IDOM" with
  | Some r ->
      Alcotest.(check (float 1e-9)) "IDOM wire5" (-5.59) r.E.Paper_data.wire5;
      Alcotest.(check (float 1e-9)) "IDOM path5" 0. r.E.Paper_data.path5
  | None -> Alcotest.fail "missing row");
  Alcotest.(check bool) "unknown level" true
    (E.Paper_data.table1_row ~level:"huge" ~alg:"KMB" = None);
  Alcotest.(check bool) "unknown alg" true (E.Paper_data.table1_row ~level:"none" ~alg:"X" = None)

let test_paper_data_complete () =
  List.iter
    (fun level ->
      List.iter
        (fun alg ->
          match E.Paper_data.table1_row ~level ~alg with
          | Some r -> if alg = "KMB" then Alcotest.(check (float 1e-9)) "KMB reference" 0. r.E.Paper_data.wire5
          | None -> Alcotest.failf "no %s row at level %s" alg level)
        [ "KMB"; "ZEL"; "IKMB"; "IZEL"; "DJKA"; "DOM"; "PFA"; "IDOM" ])
    [ "none"; "low"; "medium" ]

(* ------------------------------------------------------------------ *)
(* Router tables (small, fast configurations)                          *)
(* ------------------------------------------------------------------ *)

let test_min_width_term1 () =
  let spec = Option.get (Fr_fpga.Circuits.find_spec "term1") in
  match E.Router_tables.width_rows ~max_passes:6 [ spec ] with
  | [ { E.Router_tables.measured = Some w; wirelength; _ } ] ->
      Alcotest.(check int) "minimum width" 8 w;
      Alcotest.(check (float 0.)) "wirelength of the answer's route" 847. wirelength
  | _ -> Alcotest.fail "term1 should route"

let test_table_renderers () =
  (* Rendering accepts rows with and without measurements. *)
  let spec = Option.get (Fr_fpga.Circuits.find_spec "busc") in
  let rows = [ { E.Router_tables.spec; measured = Some 9; wirelength = 1500. } ] in
  let text = Fr_util.Tab.to_string (E.Router_tables.table2_to_table rows) in
  Alcotest.(check bool) "table2 mentions busc" true (contains text "busc");
  Alcotest.(check bool) "table2 mentions CGE" true (contains text "CGE");
  let fail_rows = [ { E.Router_tables.spec; measured = None; wirelength = 0. } ] in
  let text2 = Fr_util.Tab.to_string (E.Router_tables.table2_to_table fail_rows) in
  Alcotest.(check bool) "failure rendered" true (contains text2 "fail")

let test_table4_reuse () =
  let spec = Option.get (Fr_fpga.Circuits.find_spec "9symml") in
  let reuse = [ { E.Router_tables.spec; measured = Some 7; wirelength = 0. } ] in
  let rows = E.Router_tables.table4 ~max_passes:4 reuse in
  match rows with
  | [ r ] ->
      Alcotest.(check bool) "ikmb reused" true (r.E.Router_tables.w_ikmb = Some 7);
      Alcotest.(check bool) "pfa measured" true (r.E.Router_tables.w_pfa <> None);
      let text = Fr_util.Tab.to_string (E.Router_tables.table4_to_table rows) in
      Alcotest.(check bool) "table4 renders" true (contains text "9symml")
  | _ -> Alcotest.fail "one row expected"

(* Table 5 routes each circuit at the widest of its Table 4 widths, where
   one algorithm can still fail: term1 at W=9 within 2 passes routes with
   IKMB and PFA but not with IDOM.  The circuit is left out of the rows and
   named, with the width and the failing algorithm, in a note. *)
let test_table5_names_left_out () =
  let spec = Option.get (Fr_fpga.Circuits.find_spec "term1") in
  let row =
    { E.Router_tables.spec4 = spec; w_ikmb = Some 9; w_pfa = Some 9; w_idom = Some 9 }
  in
  let t5 = E.Router_tables.table5 ~max_passes:2 [ row ] in
  Alcotest.(check int) "no row" 0 (List.length t5.E.Router_tables.rows5);
  Alcotest.(check (list string))
    "the note"
    [ "term1 left out: IDOM unroutable at W=9, the widest of its Table 4 widths" ]
    t5.E.Router_tables.left_out;
  let text = Fr_util.Tab.to_string (E.Router_tables.table5_to_table t5) in
  Alcotest.(check bool) "the table prints it" true (contains text "term1 left out: IDOM")

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let test_fig3 () =
  let text = E.Figures.fig3 () in
  Alcotest.(check bool) "stretch reported" true (contains text "Stretch")

let test_fig4 () =
  let text = E.Figures.fig4 () in
  Alcotest.(check bool) "has all four solutions" true
    (contains text "KMB (a)" && contains text "IDOM (d)")

let test_fig6_trace () =
  let text = E.Figures.fig6 () in
  Alcotest.(check bool) "initial cost shown" true (contains text "initial KMB cost");
  Alcotest.(check bool) "S2 accepted" true (contains text "S2");
  Alcotest.(check bool) "cost improves to 5.00" true (contains text "5.00")

let test_fig13_trace () =
  let text = E.Figures.fig13 () in
  Alcotest.(check bool) "two-step trace" true (contains text "14.00 -> 8.00 -> 7.00");
  Alcotest.(check bool) "both hubs" true (contains text "M1, M2")

let test_fig10_11_14 () =
  Alcotest.(check bool) "fig10" true (contains (E.Figures.fig10 ()) "PFA/OPT");
  Alcotest.(check bool) "fig11" true (contains (E.Figures.fig11 ()) "OPT");
  Alcotest.(check bool) "fig14" true (contains (E.Figures.fig14 ()) "IDOM/OPT")

let test_fig16 () =
  (* The registry's entry, as `fpga_route figure 16` and `fpga_route repro` print it. *)
  let text = (List.assoc "16" E.Repro.figures) () in
  Alcotest.(check bool) "busc routed" true (contains text "routed busc at W=9");
  Alcotest.(check bool) "occupancy map rendered" true (contains text "[]")

(* ------------------------------------------------------------------ *)
(* CPU-time table                                                      *)
(* ------------------------------------------------------------------ *)

let test_cpu_times () =
  let times = E.Repro.cpu_times ~quota_s:0.001 in
  Alcotest.(check (list string))
    "the eight constructions, in Table 1's order"
    (List.map (fun (a : C.Routing_alg.t) -> a.C.Routing_alg.name) C.Routing_alg.all)
    (List.map (fun (c : E.Repro.cpu_time) -> c.E.Repro.construction) times);
  let table = E.Repro.cpu_table times in
  List.iter
    (fun (c : E.Repro.cpu_time) ->
      let name = c.E.Repro.construction in
      Alcotest.(check bool) (name ^ " timed at least once") true (c.E.Repro.runs >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: finite, positive median (%g s)" name c.E.Repro.median)
        true
        (Float.is_finite c.E.Repro.median && c.E.Repro.median > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: Q1 %g <= median %g <= Q3 %g" name c.E.Repro.q1 c.E.Repro.median
           c.E.Repro.q3)
        true
        (c.E.Repro.q1 <= c.E.Repro.median && c.E.Repro.median <= c.E.Repro.q3);
      Alcotest.(check bool) (name ^ " in the table") true (contains table name))
    times

let () =
  Alcotest.run "fr_exp"
    [
      ( "congestion",
        [
          Alcotest.test_case "levels" `Quick test_congestion_levels;
          Alcotest.test_case "no congestion" `Quick test_congestion_none;
          Alcotest.test_case "calibration vs paper" `Quick test_congestion_calibration;
          Alcotest.test_case "size override" `Quick test_congestion_size_override;
        ] );
      ( "table1",
        [
          Alcotest.test_case "structure" `Quick test_table1_structure;
          Alcotest.test_case "invariants" `Quick test_table1_invariants;
          Alcotest.test_case "weights rise with k" `Quick test_table1_weights_rise_with_k;
          Alcotest.test_case "rendering" `Quick test_table1_render;
        ] );
      ( "paper_data",
        [
          Alcotest.test_case "lookup" `Quick test_paper_data_lookup;
          Alcotest.test_case "complete" `Quick test_paper_data_complete;
        ] );
      ( "router_tables",
        [
          Alcotest.test_case "term1 min width" `Slow test_min_width_term1;
          Alcotest.test_case "renderers" `Quick test_table_renderers;
          Alcotest.test_case "table4 reuse" `Slow test_table4_reuse;
          Alcotest.test_case "table5 names a circuit it leaves out" `Slow
            test_table5_names_left_out;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig3" `Quick test_fig3;
          Alcotest.test_case "fig4" `Quick test_fig4;
          Alcotest.test_case "fig6 trace" `Quick test_fig6_trace;
          Alcotest.test_case "fig13 trace" `Quick test_fig13_trace;
          Alcotest.test_case "worst-case figures" `Quick test_fig10_11_14;
          Alcotest.test_case "fig16" `Slow test_fig16;
        ] );
      ("cpu_times", [ Alcotest.test_case "quartiles per construction" `Quick test_cpu_times ]);
    ]
