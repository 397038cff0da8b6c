module G = Fr_graph
module C = Fr_core
module F = Fr_fpga
module R = Router_tables
module Tab = Fr_util.Tab

let tables ~quick =
  let max_passes = if quick then 8 else 20 in
  let nets_per_config = if quick then 10 else 50 in
  (* Quick mode keeps each series' smallest circuits, in table order. *)
  let circuits quick_names specs =
    if quick then List.filter (fun s -> List.mem s.F.Circuits.circuit quick_names) specs
    else specs
  in
  let specs3000 = circuits [ "busc" ] F.Circuits.specs_3000 in
  let rows3 =
    lazy (R.width_rows ~max_passes (circuits [ "term1"; "9symml"; "apex7" ] F.Circuits.specs_4000))
  in
  let rows4 = lazy (R.table4 ~max_passes (Lazy.force rows3)) in
  [
    ("1", fun () -> Tab.to_string (Table1.to_table (Table1.run ~nets_per_config ())));
    ("2", fun () -> Tab.to_string (R.table2_to_table (R.width_rows ~max_passes specs3000)));
    ("3", fun () -> Tab.to_string (R.table3_to_table (Lazy.force rows3)));
    ("4", fun () -> Tab.to_string (R.table4_to_table (Lazy.force rows4)));
    ("5", fun () -> Tab.to_string (R.table5_to_table (R.table5 ~max_passes (Lazy.force rows4))));
    ( "baseline",
      fun () -> Tab.to_string (R.baseline_to_table (R.baseline ~max_passes (Lazy.force rows3))) );
  ]

let figures =
  Figures.
    [
      ("3", fig3);
      ("4", fig4);
      ("6", fig6);
      ("10", fig10);
      ("11", fig11);
      ("13", fig13);
      ("14", fig14);
      ("16", fig16);
    ]

type cpu_time = { construction : string; runs : int; q1 : float; median : float; q3 : float }

let cpu_quota_s ~quick = if quick then 0.2 else 0.5

(* The [p]-quantile of an ascending, non-empty array, interpolated
   linearly between the two nearest ranks. *)
let quantile sorted p =
  let x = p *. float_of_int (Array.length sorted - 1) in
  let i = int_of_float x in
  if i + 1 >= Array.length sorted then sorted.(i)
  else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let cpu_times ~quota_s =
  (* The paper's instance: |V|=50, |E|=1000, |N|=5. *)
  let rng = Fr_util.Rng.make 42 in
  let g = G.Random_graph.connected rng ~n:50 ~m:1000 ~wmin:0.5 ~wmax:3. in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:5) in
  List.map
    (fun (alg : C.Routing_alg.t) ->
      (* A fresh cache per run: the paper times a construction together
         with its shortest-path searches. *)
      let run () = ignore (alg.C.Routing_alg.solve (G.Dist_cache.create g) ~net) in
      run ();
      let deadline = Unix.gettimeofday () +. quota_s in
      let rec timed acc =
        let t0 = Unix.gettimeofday () in
        run ();
        let t1 = Unix.gettimeofday () in
        let acc = (t1 -. t0) :: acc in
        if t1 < deadline then timed acc else acc
      in
      let sorted = Array.of_list (timed []) in
      Array.sort Float.compare sorted;
      {
        construction = alg.C.Routing_alg.name;
        runs = Array.length sorted;
        q1 = quantile sorted 0.25;
        median = quantile sorted 0.5;
        q3 = quantile sorted 0.75;
      })
    C.Routing_alg.all

let cpu_table times =
  let t =
    Tab.create
      ~title:"CPU time per net (paper: 'several dozen ms' on |V|=50, |E|=1000, |N|=5)"
      ~header:[ "Construction"; "median (us)"; "Q1 (us)"; "Q3 (us)"; "runs" ]
  in
  let us s = Printf.sprintf "%.1f" (s *. 1e6) in
  List.iter
    (fun c -> Tab.add_row t [ c.construction; us c.median; us c.q1; us c.q3; string_of_int c.runs ])
    times;
  Tab.to_string t
