(* The paper reproduction: the §5 CPU-time table (Bechamel over the eight
   constructions; the paper reports "several dozen milliseconds" per
   construction on random graphs with |V|=50, |E|=1000, |N|=5), then every
   table and figure of the Fr_exp.Repro registry, each followed by its wall
   time.  The router's end-to-end benchmark, with pinned goldens and
   per-layer counters, is perfbench/ (see perfbench/README.md).

   Environment:
     REPRO_QUICK=1   the registry's quick mode (what `fpga_route table N
                     --quick` runs) and a shorter Bechamel quota

   Run with: dune exec bench/main.exe *)

module G = Fr_graph
module C = Fr_core
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
(* Table / figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

let timed label run =
  let t0 = Unix.gettimeofday () in
  print_endline (run ());
  Printf.printf "(%s took %.1f s)\n%!" label (Unix.gettimeofday () -. t0)

let () =
  Printf.printf "Reproduction benches for Alexander-Robins, DAC 1995%s, %d cores (each table and \
                 figure runs on one)\n%!"
    (if quick then " [REPRO_QUICK]" else "")
    (Domain.recommended_domain_count ());

  section "CPU-time micro-benchmarks (paper: 'several dozen ms' on |V|=50, |E|=1000, |N|=5)";
  run_bechamel "algorithms" algorithm_tests ~quota_s:(if quick then 0.2 else 0.5);

  section "Tables";
  List.iter (fun (name, run) -> timed ("table " ^ name) run) (Fr_exp.Repro.tables ~quick);

  section "Figures";
  List.iter (fun (name, run) -> timed ("figure " ^ name) run) Fr_exp.Repro.figures;
  print_endline "Done."
