(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, preceded by Bechamel CPU-time micro-benchmarks (the
   paper's §5 reports "several dozen milliseconds" per construction on
   random graphs with |V|=50, |E|=1000, |N|=5).

   One Bechamel kernel is registered per table/figure workload; the full
   table regeneration then follows, printing measured values next to the
   published ones.  The router's end-to-end benchmark, with pinned goldens
   and per-layer counters, is perfbench/ (see perfbench/README.md).

   Environment:
     REPRO_QUICK=1   smaller workloads / subset of circuits (CI-friendly)

   Run with: dune exec bench/main.exe *)

module G = Fr_graph
module C = Fr_core
module F = Fr_fpga
open Bechamel
open Toolkit

let quick = Sys.getenv_opt "REPRO_QUICK" <> None

let section title =
  Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* The paper's CPU-time instance: random graphs |V|=50, |E|=1000, |N|=5. *)
let cpu_time_instance seed =
  let rng = Fr_util.Rng.make seed in
  let g = G.Random_graph.connected rng ~n:50 ~m:1000 ~wmin:0.5 ~wmax:3. in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:5) in
  (g, net)

let algorithm_tests =
  let g, net = cpu_time_instance 42 in
  List.map
    (fun (alg : C.Routing_alg.t) ->
      Test.make ~name:alg.C.Routing_alg.name
        (Staged.stage (fun () ->
             (* A fresh cache per run: the paper times the construction
                including its shortest-path computations. *)
             let cache = G.Dist_cache.create g in
             ignore (alg.C.Routing_alg.solve cache ~net))))
    C.Routing_alg.all

(* One kernel per table/figure workload. *)
let table1_kernel () =
  let rng = Fr_util.Rng.make 5 in
  let grid = Fr_exp.Congestion.congested_grid rng ~k:10 in
  let g = grid.G.Grid.graph in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:5) in
  let cache = G.Dist_cache.create g in
  List.iter (fun (a : C.Routing_alg.t) -> ignore (a.C.Routing_alg.solve cache ~net)) C.Routing_alg.all

let router_kernel alg () =
  let spec = Option.get (F.Circuits.find_spec "term1") in
  let circuit = F.Circuits.generate spec in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:10) in
  let config = F.Router.config_with ~alg ~max_passes:3 () in
  ignore (F.Router.route ~config rrg circuit)

let fig10_kernel () =
  let inst = C.Worst_case.pfa_graph ~k:8 in
  let cache = G.Dist_cache.create inst.C.Worst_case.graph in
  ignore (C.Pfa.solve cache ~net:inst.C.Worst_case.net)

let fig14_kernel () =
  let inst = C.Worst_case.idom_graph ~levels:4 in
  let cache = G.Dist_cache.create inst.C.Worst_case.graph in
  ignore (C.Idom.solve cache ~net:inst.C.Worst_case.net)

let workload_tests =
  [
    Test.make ~name:"table1:one-net-all-algs" (Staged.stage table1_kernel);
    Test.make ~name:"table2/3:router-term1-IKMB" (Staged.stage (router_kernel C.Routing_alg.ikmb));
    Test.make ~name:"table4:router-term1-PFA" (Staged.stage (router_kernel C.Routing_alg.pfa));
    Test.make ~name:"table5:router-term1-IDOM" (Staged.stage (router_kernel C.Routing_alg.idom));
    Test.make ~name:"fig10:pfa-worst-case" (Staged.stage fig10_kernel);
    Test.make ~name:"fig14:idom-worst-case" (Staged.stage fig14_kernel);
  ]

let run_bechamel name tests ~quota_s =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let t =
    Fr_util.Tab.create ~title:(name ^ " (monotonic clock)")
      ~header:[ "benchmark"; "time/run"; "r2" ]
  in
  List.iter
    (fun (k, v) ->
      let est =
        match Analyze.OLS.estimates v with
        | Some (e :: _) ->
            if e > 1e9 then Printf.sprintf "%.2f s" (e /. 1e9)
            else if e > 1e6 then Printf.sprintf "%.2f ms" (e /. 1e6)
            else if e > 1e3 then Printf.sprintf "%.2f us" (e /. 1e3)
            else Printf.sprintf "%.0f ns" e
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square v with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Fr_util.Tab.add_row t [ k; est; r2 ])
    rows;
  Fr_util.Tab.print t

(* ------------------------------------------------------------------ *)
(* Full table / figure regeneration                                    *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "(section took %.1fs)\n%!" (Unix.gettimeofday () -. t0);
  r

let subset_3000 () =
  if quick then List.filter (fun s -> s.F.Circuits.circuit = "busc") F.Circuits.specs_3000
  else F.Circuits.specs_3000

let subset_4000 () =
  if quick then
    List.filter
      (fun s -> List.mem s.F.Circuits.circuit [ "term1"; "9symml"; "apex7" ])
      F.Circuits.specs_4000
  else F.Circuits.specs_4000

let () =
  Printf.printf "Reproduction benches for Alexander-Robins, DAC 1995%s\n%!"
    (if quick then " [REPRO_QUICK]" else "");

  section "CPU-time micro-benchmarks (paper: 'several dozen ms' on |V|=50, |E|=1000, |N|=5)";
  run_bechamel "algorithms" algorithm_tests ~quota_s:(if quick then 0.2 else 0.5);

  section "Per-table/figure workload kernels";
  run_bechamel "workloads" workload_tests ~quota_s:(if quick then 0.5 else 1.0);

  let nets_per_config = if quick then 10 else 50 in
  let max_passes = if quick then 8 else 20 in
  let config = F.Router.config_with ~max_passes () in

  section "Table 1 (grid congestion study)";
  wall (fun () ->
      Fr_util.Tab.print (Fr_exp.Table1.to_table (Fr_exp.Table1.run ~nets_per_config ())));

  section "Table 2 (3000-series channel widths vs CGE)";
  let rows2 = wall (fun () -> Fr_exp.Router_tables.table2 ~config ~specs:(subset_3000 ()) ()) in
  Fr_util.Tab.print (Fr_exp.Router_tables.table2_to_table rows2);

  section "Table 3 (4000-series channel widths vs SEGA/GBP)";
  let rows3 = wall (fun () -> Fr_exp.Router_tables.table3 ~config ~specs:(subset_4000 ()) ()) in
  Fr_util.Tab.print (Fr_exp.Router_tables.table3_to_table rows3);

  section "Table 4 (channel width by algorithm)";
  let rows4 =
    wall (fun () ->
        Fr_exp.Router_tables.table4 ~specs:(subset_4000 ()) ~max_passes ~reuse_ikmb:rows3 ())
  in
  Fr_util.Tab.print (Fr_exp.Router_tables.table4_to_table rows4);

  section "Table 5 (wirelength vs pathlength at equal width)";
  let rows5 = wall (fun () -> Fr_exp.Router_tables.table5 ~max_passes rows4) in
  Fr_util.Tab.print (Fr_exp.Router_tables.table5_to_table rows5);

  section "Baseline (two-pin decomposition, the CGE/SEGA/GBP strategy)";
  let baseline_specs =
    (* The live baseline is our own addition; keep it to the smaller half
       of the 4000-series set to bound the run time. *)
    if quick then subset_4000 ()
    else
      List.filter
        (fun s ->
          List.mem s.F.Circuits.circuit [ "term1"; "9symml"; "apex7"; "example2"; "alu2" ])
        F.Circuits.specs_4000
  in
  let rowsb = wall (fun () -> Fr_exp.Router_tables.baseline ~specs:baseline_specs ~max_passes ()) in
  Fr_util.Tab.print (Fr_exp.Router_tables.baseline_to_table rowsb);

  section "Figures";
  print_endline (Fr_exp.Figures.fig3 ());
  print_endline (Fr_exp.Figures.fig4 ());
  print_endline (Fr_exp.Figures.fig6 ());
  print_endline (Fr_exp.Figures.fig10 ());
  print_endline (Fr_exp.Figures.fig11 ());
  print_endline (Fr_exp.Figures.fig13 ());
  print_endline (Fr_exp.Figures.fig14 ());
  print_endline (Fr_exp.Figures.fig16 ~channel_width:8 ());
  print_endline "Done."
