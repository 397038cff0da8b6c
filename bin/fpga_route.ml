(* Command-line front end for the FPGA routing library.

   Subcommands:
     route     route a benchmark circuit at a given channel width
     width     find a circuit's minimum channel width
     table     regenerate one of the paper's tables (1-5, or "baseline")
     figure    regenerate one of the paper's figures (3,4,6,10,11,13,14,16)
     repro     the paper reproduction: the CPU-time table, every table and
               every figure
     circuits  list the benchmark circuit specifications
     net       route one random net on a congested grid with every algorithm
     serve     long-lived routing daemon speaking newline-delimited JSON
               (route / eco / stats / checkpoint / shutdown) on a Unix socket *)

module F = Fr_fpga
module C = Fr_core
module G = Fr_graph
open Cmdliner

let alg_conv =
  let parse s =
    match C.Routing_alg.by_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S (try KMB, IKMB, PFA, IDOM...)" s))
  in
  let print fmt (a : C.Routing_alg.t) = Format.pp_print_string fmt a.C.Routing_alg.name in
  Arg.conv (parse, print)

let spec_conv =
  let parse s =
    match F.Circuits.find_spec s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown circuit %S (see `fpga_route circuits`)" s))
  in
  let print fmt (s : F.Circuits.spec) = Format.pp_print_string fmt s.F.Circuits.circuit in
  Arg.conv (parse, print)

(* An integer outside [lo, hi] is a usage error, reported with the usage
   line before any work starts. *)
let int_within ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some _ | None ->
        let range =
          if hi = max_int then Printf.sprintf ">= %d" lo else Printf.sprintf "in [%d, %d]" lo hi
        in
        Error (`Msg (Printf.sprintf "expected an integer %s, got %S" range s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Widths, pass caps and start widths. *)
let positive_int = int_within 1

(* One of the named [choices], spelled out in full: [Arg.enum] also takes
   any unambiguous prefix, which would read "300" as "3000". *)
let exact_enum choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "invalid value %S, expected one of %s" s
               (String.concat ", " (List.map fst choices))))
  in
  let print fmt v = Format.pp_print_string fmt (fst (List.find (fun (_, x) -> x = v) choices)) in
  Arg.conv (parse, print)

(* The names of a registry, as the values of an [exact_enum]. *)
let names registry = exact_enum (List.map (fun (name, _) -> (name, name)) registry)

let alg_arg =
  Arg.(value & opt alg_conv C.Routing_alg.ikmb & info [ "a"; "alg" ] ~docv:"ALG" ~doc:"Routing algorithm.")

let passes_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "passes" ] ~docv:"N"
        ~doc:
          "Maximum rip-up passes of $(b,--mode waves) (default 20). Negotiated mode stops on its \
           own iteration limits, so $(b,--passes) with $(b,--mode negotiated) is a usage error.")

let domains_arg =
  Arg.(
    value
    & opt (int_within ~hi:Fr_util.Pool.max_domains 1) 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains for the speculative batch solves, 1 to %d. The routed trees are \
              bit-identical for every value; only the wall time changes."
             Fr_util.Pool.max_domains))

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("waves", F.Router.Waves); ("negotiated", F.Router.Negotiated) ]) F.Router.Waves
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Routing mode: $(b,waves) (rip-up passes over speculative batches, the default) or \
           $(b,negotiated) (PathFinder-style negotiated congestion — all nets route every \
           iteration against shared resources priced by overuse). Both modes are \
           bit-identical across $(b,--domains).")

let spec_arg = Arg.(required & pos 0 (some spec_conv) None & info [] ~docv:"CIRCUIT")

(* ---------------- route ---------------- *)

let width_arg =
  Arg.(value & opt positive_int 10 & info [ "w"; "width" ] ~docv:"W" ~doc:"Channel width.")

(* A pass cap caps waves passes only: given with negotiated mode, which
   would ignore it, it is a usage error, reported before anything is
   built; [k] runs otherwise. *)
let with_passes mode passes k =
  match (mode, passes) with
  | F.Router.Negotiated, Some _ ->
      `Error (true, "--passes caps waves passes; --mode negotiated takes none")
  | _ -> k ()

(* Route the circuit on the RRG and report: the summary line (and the
   occupancy map with [render]) and exit 0, or the failure and exit 1.
   Shared by [route] and [route-file]. *)
let route_and_report rrg circuit alg passes mode domains render =
  let config = F.Router.config_with ~alg ?max_passes:passes ~mode () in
  match F.Router.route ~config ~domains rrg circuit with
  | Ok stats ->
      print_endline (F.Render.summary rrg stats);
      if render then print_endline (F.Render.occupancy_map rrg);
      0
  | Error f ->
      Printf.printf "unroutable at W=%d: %d nets still failing after %d passes\n"
        rrg.F.Rrg.arch.F.Arch.channel_width
        (List.length f.F.Router.failed_nets)
        f.F.Router.passes_tried;
      1

(* A width whose routing graph the architecture rejects (above its
   edge-slot cap) is a usage error too, reported before anything is
   built; [k] runs on the architecture otherwise. *)
let with_arch spec ~channel_width k =
  match F.Circuits.arch_for spec ~channel_width with
  | arch -> `Ok (k arch)
  | exception Invalid_argument msg -> `Error (true, msg)

let run_route spec width alg passes mode domains render =
  with_passes mode passes @@ fun () ->
  with_arch spec ~channel_width:width (fun arch ->
      route_and_report (F.Rrg.build arch) (F.Circuits.generate spec) alg passes mode domains render)

let route_cmd =
  let render = Arg.(value & flag & info [ "render" ] ~doc:"Print the occupancy map.") in
  Cmd.v
    (Cmd.info "route" ~doc:"Route a benchmark circuit at a fixed channel width")
    Term.(
      ret
        (const run_route $ spec_arg $ width_arg $ alg_arg $ passes_arg $ mode_arg $ domains_arg
       $ render))

(* ---------------- width ---------------- *)

let sweep_width spec alg passes mode domains start =
  let circuit = F.Circuits.generate spec in
  let config = F.Router.config_with ~alg ?max_passes:passes ~mode () in
  let arch_of_width w = F.Circuits.arch_for spec ~channel_width:w in
  match F.Router.min_channel_width ~config ~domains ~arch_of_width ~circuit ~start () with
  | Some (w, stats) ->
      Printf.printf "%s: minimum channel width %d with %s (%d passes, wirelength %.0f)\n"
        spec.F.Circuits.circuit w alg.C.Routing_alg.name stats.F.Router.passes
        stats.F.Router.total_wirelength;
      let p = spec.F.Circuits.published in
      let show label = function Some v -> Printf.printf "  %s: %d\n" label v | None -> () in
      show "paper (IKMB)" p.F.Circuits.ours_ikmb;
      show "CGE" p.F.Circuits.cge;
      show "SEGA" p.F.Circuits.sega;
      show "GBP" p.F.Circuits.gbp;
      0
  | None ->
      Printf.printf "%s: no feasible width found in the probed range\n" spec.F.Circuits.circuit;
      1

let run_width spec alg passes mode domains start =
  let start =
    match start with
    | Some s -> s
    | None -> (
        match spec.F.Circuits.published.F.Circuits.ours_ikmb with Some w -> w | None -> 10)
  in
  with_passes mode passes @@ fun () ->
  with_arch spec ~channel_width:start (fun _ -> sweep_width spec alg passes mode domains start)

let width_cmd =
  let start =
    Arg.(
      value & opt (some positive_int) None & info [ "start" ] ~docv:"W" ~doc:"Initial width probe.")
  in
  Cmd.v
    (Cmd.info "width" ~doc:"Find a circuit's minimum routable channel width")
    Term.(ret (const run_width $ spec_arg $ alg_arg $ passes_arg $ mode_arg $ domains_arg $ start))

(* ---------------- table / figure ---------------- *)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Quick mode: Table 1 at 10 nets per configuration, Table 2 on busc, Tables 3-5 and the \
           baseline on apex7, term1 and 9symml, each route capped at 8 rip-up passes, and 0.2 s \
           of timed runs per construction in the CPU-time table (full mode: 50 nets, every \
           circuit, 20 passes, 0.5 s).")

(* Print the entry [which] of a Fr_exp.Repro registry.  The registry's
   names, the same in quick and full mode, are the only values [table] and
   [figure] accept. *)
let print_entry registry which =
  print_endline ((List.assoc which registry) ());
  0

let table_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (names (Fr_exp.Repro.tables ~quick:false))) None
      & info [] ~docv:"TABLE" ~doc:"$(b,1)-$(b,5) or $(b,baseline).")
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables (1-5, baseline)")
    Term.(
      const (fun which quick -> print_entry (Fr_exp.Repro.tables ~quick) which) $ which $ quick_arg)

let figure_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (names Fr_exp.Repro.figures)) None
      & info [] ~docv:"FIGURE" ~doc:"One of 3, 4, 6, 10, 11, 13, 14, 16.")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures")
    Term.(const (print_entry Fr_exp.Repro.figures) $ which)

(* ---------------- repro ---------------- *)

let section title = Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

(* Every table and figure on stdout, which repeats byte for byte from run
   to run; whatever reads a clock (the core count, the CPU-time table and
   each entry's wall time) on stderr. *)
let run_repro quick =
  let module R = Fr_exp.Repro in
  Printf.printf "Reproduction of Alexander-Robins, DAC 1995, %s mode\n%!"
    (if quick then "quick" else "full");
  Printf.eprintf "%d cores (each table and figure runs on one)\n%!"
    (Domain.recommended_domain_count ());
  prerr_endline (R.cpu_table (R.cpu_times ~quota_s:(R.cpu_quota_s ~quick)));
  let timed kind (name, run) =
    let t0 = Unix.gettimeofday () in
    print_endline (run ());
    Printf.eprintf "(%s %s took %.1f s)\n%!" kind name (Unix.gettimeofday () -. t0)
  in
  section "Tables";
  List.iter (timed "table") (R.tables ~quick);
  section "Figures";
  List.iter (timed "figure") R.figures;
  print_endline "Done.";
  0

let repro_cmd =
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Reproduce the paper's evaluation: the CPU-time table, then every table and figure. \
          Tables and figures go to stdout, which repeats byte for byte; the core count, the \
          CPU-time table and each entry's wall time go to stderr")
    Term.(const run_repro $ quick_arg)

(* ---------------- export / route-file ---------------- *)

let run_export spec =
  print_string (F.Netlist.to_string (F.Circuits.generate spec));
  0

let export_cmd =
  Cmd.v
    (Cmd.info "export" ~doc:"Print a benchmark circuit in the textual netlist format")
    Term.(const run_export $ spec_arg)

let run_route_file file width series alg passes mode domains render =
  with_passes mode passes @@ fun () ->
  match F.Netlist.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | exception Sys_error msg ->
      Printf.printf "cannot read %s: %s\n" file msg;
      `Ok 2
  | Error msg ->
      Printf.printf "cannot parse %s: %s\n" file msg;
      `Ok 2
  | Ok circuit -> (
      let arch =
        match series with
        | F.Arch.Series_3000 -> F.Arch.xc3000
        | F.Arch.Series_4000 -> F.Arch.xc4000
      in
      (* A netlist that parses may still not fit: an empty array, a pin off
         the array, a pin shared by two nets, a slot the architecture lacks.
         The architecture and the router reject those with Invalid_argument
         before routing anything. *)
      match
        let rrg =
          F.Rrg.build
            (arch ~rows:circuit.F.Netlist.rows ~cols:circuit.F.Netlist.cols ~channel_width:width)
        in
        route_and_report rrg circuit alg passes mode domains render
      with
      | code -> `Ok code
      | exception Invalid_argument msg ->
          Printf.printf "cannot route %s: %s\n" file msg;
          `Ok 2)

let route_file_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST_FILE") in
  let series =
    Arg.(
      value
      & opt (exact_enum [ ("3000", F.Arch.Series_3000); ("4000", F.Arch.Series_4000) ])
          F.Arch.Series_4000
      & info [ "series" ] ~docv:"S" ~doc:"Architecture series: $(b,3000) or $(b,4000).")
  in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"Print the occupancy map.") in
  Cmd.v
    (Cmd.info "route-file" ~doc:"Route a circuit from a textual netlist file")
    Term.(
      ret
        (const run_route_file $ file $ width_arg $ series $ alg_arg $ passes_arg $ mode_arg
       $ domains_arg $ render))

(* ---------------- circuits ---------------- *)

let run_circuits () =
  let t =
    Fr_util.Tab.create ~title:"Benchmark circuits (synthetic reconstructions)"
      ~header:[ "Circuit"; "Series"; "Size"; "#nets"; "2-3"; "4-10"; ">10" ]
  in
  List.iter
    (fun s ->
      Fr_util.Tab.add_row t
        [
          s.F.Circuits.circuit;
          (match s.F.Circuits.series with
          | F.Arch.Series_3000 -> "3000"
          | F.Arch.Series_4000 -> "4000");
          Printf.sprintf "%dx%d" s.F.Circuits.rows s.F.Circuits.cols;
          string_of_int (F.Circuits.total_nets s);
          string_of_int s.F.Circuits.nets_small;
          string_of_int s.F.Circuits.nets_medium;
          string_of_int s.F.Circuits.nets_large;
        ])
    F.Circuits.all_specs;
  Fr_util.Tab.print t;
  0

let circuits_cmd =
  Cmd.v (Cmd.info "circuits" ~doc:"List the benchmark circuits") Term.(const run_circuits $ const ())

(* ---------------- net ---------------- *)

let run_net size congestion seed =
  let rng = Fr_util.Rng.make seed in
  let grid = Fr_exp.Congestion.congested_grid rng ~k:congestion in
  let g = grid.G.Grid.graph in
  let net = C.Net.of_terminals (G.Random_graph.random_net rng g ~k:size) in
  let cache = G.Dist_cache.create g in
  let t =
    Fr_util.Tab.create
      ~title:
        (Printf.sprintf "One %d-pin net on a 20x20 grid (congestion k=%d, w=%.2f)" size congestion
           (G.Gstate.mean_edge_weight g))
      ~header:[ "Algorithm"; "Wirelength"; "Max path"; "Arborescence?" ]
  in
  List.iter
    (fun (alg : C.Routing_alg.t) ->
      let tree = alg.C.Routing_alg.solve cache ~net in
      let m = C.Eval.metrics cache ~net ~tree in
      Fr_util.Tab.add_row t
        [
          alg.C.Routing_alg.name;
          Printf.sprintf "%.2f" m.C.Eval.cost;
          Printf.sprintf "%.2f" m.C.Eval.max_path;
          (if m.C.Eval.arborescence then "yes" else "no");
        ])
    C.Routing_alg.all;
  Fr_util.Tab.print t;
  0

(* The net is sampled from the nodes of the default 20x20 congestion grid. *)
let net_grid_nodes = 20 * 20

let net_cmd =
  let size =
    Arg.(
      value
      & opt (int_within ~hi:net_grid_nodes 1) 5
      & info [ "pins" ] ~docv:"K" ~doc:"Number of pins, between 1 and 400 (the grid's nodes).")
  in
  let congestion =
    Arg.(value & opt (int_within 0) 10 & info [ "congestion" ] ~docv:"K" ~doc:"Pre-routed nets.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "net" ~doc:"Route one random net with all eight algorithms")
    Term.(const run_net $ size $ congestion $ seed)

(* ---------------- serve ---------------- *)

let run_serve socket =
  let server = Fr_serve.Server.create ~socket in
  Printf.printf "fpga_route: listening on %s\n%!" socket;
  Fr_serve.Server.serve_forever server;
  0

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket to listen on.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the routing daemon: newline-delimited JSON requests ($(b,route), $(b,eco), \
          $(b,stats), $(b,checkpoint), $(b,shutdown)) over a Unix domain socket, maintaining a \
          long-lived incremental (ECO) routing session between requests")
    Term.(const run_serve $ socket)

let main =
  Cmd.group
    (Cmd.info "fpga_route" ~version:"1.0.0"
       ~doc:"Performance-driven FPGA routing (Alexander-Robins DAC'95 reproduction)")
    [
      route_cmd; width_cmd; table_cmd; figure_cmd; repro_cmd; circuits_cmd; net_cmd; export_cmd;
      route_file_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main)
