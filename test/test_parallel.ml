(* Properties of the parallel routing layer: the domain work-pool, the
   read-only graph views it hands to workers, and the router's
   bit-for-bit determinism across domain counts, at pinned quality. *)

module G = Fr_graph
module F = Fr_fpga
module P = Fr_util.Pool

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_each_job_once () =
  List.iter
    (fun domains ->
      let pool = P.create ~domains () in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool)
        (fun () ->
          let n = 1000 in
          (* Each index is claimed by exactly one worker, so a plain
             increment per index is race-free; any double execution shows
             up as a count <> 1. *)
          let counts = Array.make n 0 in
          (* The other domains hold their jobs until the caller has run
             one, so the caller's share does not hinge on winning a race
             for the first jobs on a loaded machine.  A caller that
             blocked instead of working would leave them waiting out the
             deadline and fail the participation check below. *)
          let caller = (Domain.self () :> int) in
          let caller_ran = Atomic.make false in
          let deadline = Unix.gettimeofday () +. 10. in
          ignore
            (P.map pool ~count:n (fun i ->
                 if Int.equal (Domain.self () :> int) caller then Atomic.set caller_ran true
                 else
                   while (not (Atomic.get caller_ran)) && Unix.gettimeofday () < deadline do
                     Domain.cpu_relax ()
                   done;
                 counts.(i) <- counts.(i) + 1));
          Array.iteri
            (fun i c ->
              if c <> 1 then Alcotest.failf "job %d ran %d times (domains=%d)" i c domains)
            counts;
          Alcotest.(check bool) "the caller participated" true (Atomic.get caller_ran))
        )
    [ 1; 2; 4 ]

let test_pool_map_in_order () =
  let pool = P.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      let out = P.map pool ~count:100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length out);
      Array.iteri (fun i v -> Alcotest.(check int) "slot" (i * i) v) out)

let test_pool_exception_surfaces () =
  List.iter
    (fun domains ->
      let pool = P.create ~domains () in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool)
        (fun () ->
          Alcotest.check_raises "job exception re-raised" (Failure "boom 17")
            (fun () ->
              ignore (P.map pool ~count:50 (fun i -> if i = 17 then failwith "boom 17")));
          (* The pool survives a failed wave and keeps working. *)
          let ran = Array.make 20 0 in
          ignore (P.map pool ~count:20 (fun i -> ran.(i) <- ran.(i) + 1));
          Alcotest.(check bool)
            "usable after a raising wave" true
            (Array.for_all (( = ) 1) ran))
        )
    [ 1; 4 ]

let test_pool_reuse_across_waves () =
  let pool = P.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      for wave = 1 to 5 do
        let n = 37 * wave in
        let out = P.map pool ~count:n (fun i -> i + wave) in
        Array.iteri (fun i v -> Alcotest.(check int) "reused wave" (i + wave) v) out
      done)

let test_pool_shutdown () =
  let pool = P.create ~domains:2 () in
  P.shutdown pool;
  P.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (P.map pool ~count:1 (fun _ -> ())))

(* A domain count outside [1, max_domains] is rejected before anything
   spawns, by the pool and by the router (whose check runs before its pool
   starts).  Only rejected counts are tried here: the runtime's limit of
   128 domains per process makes a real over-cap spawn unsafe to test. *)
let test_pool_domain_cap () =
  let msg = Printf.sprintf "Pool.create: domains must be in [1, %d]" P.max_domains in
  List.iter
    (fun domains ->
      Alcotest.check_raises (string_of_int domains) (Invalid_argument msg) (fun () ->
          ignore (P.create ~domains ())))
    [ 0; P.max_domains + 1 ];
  let spec = Option.get (F.Circuits.find_spec "term1") in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:14) in
  Alcotest.check_raises "router"
    (Invalid_argument (Printf.sprintf "Router.route: domains must be in [1, %d]" P.max_domains))
    (fun () -> ignore (F.Router.route ~domains:(P.max_domains + 1) rrg (F.Circuits.generate spec)))

(* ------------------------------------------------------------------ *)
(* Read-only Gstate views                                             *)
(* ------------------------------------------------------------------ *)

let view_fixture () =
  let b = G.Wgraph.create 3 in
  let e01 = G.Wgraph.add_edge b 0 1 1. in
  let e12 = G.Wgraph.add_edge b 1 2 2. in
  let g = G.Gstate.of_builder b in
  (g, G.Gstate.read_only_view g, e01, e12)

let test_view_reads () =
  let g, v, e01, _ = view_fixture () in
  Alcotest.(check bool) "base is writable" false (G.Gstate.is_read_only g);
  Alcotest.(check bool) "view is read-only" true (G.Gstate.is_read_only v);
  Alcotest.(check (float 1e-9)) "weights visible" 1. (G.Gstate.weight v e01);
  Alcotest.(check int) "version shared" (G.Gstate.version g) (G.Gstate.version v)

let test_view_mutators_raise () =
  let _, v, e01, _ = view_fixture () in
  let raises what f =
    Alcotest.check_raises what (Invalid_argument ("Gstate." ^ what ^ ": read-only view")) f
  in
  raises "set_weight" (fun () -> G.Gstate.set_weight v e01 9.);
  raises "disable_node" (fun () -> G.Gstate.disable_node v 0);
  let cp = G.Gstate.checkpoint v in
  raises "rollback" (fun () -> G.Gstate.rollback v cp);
  raises "commit" (fun () -> G.Gstate.commit v cp)

let test_view_sees_base_mutations () =
  (* The view shares the base state's version counter, so a cache over a
     view refuses lookups after a mutation made through the base handle,
     and a fresh one reads it. *)
  let g, v, e01, _ = view_fixture () in
  let cache = G.Dist_cache.create v in
  Alcotest.(check (float 1e-9)) "before" 1. (G.Dist_cache.dist cache ~src:0 ~dst:1);
  G.Gstate.set_weight g e01 5.;
  Alcotest.(check bool)
    "version bump visible through the view" true
    (G.Gstate.version v = G.Gstate.version g);
  Alcotest.check_raises "the old cache refuses"
    (Invalid_argument "Dist_cache.dist: graph mutated since the cache was created") (fun () ->
      ignore (G.Dist_cache.dist cache ~src:0 ~dst:1));
  Alcotest.(check (float 1e-9))
    "a fresh cache over the view reads the mutation" 5.
    (G.Dist_cache.dist (G.Dist_cache.create v) ~src:0 ~dst:1)

(* ------------------------------------------------------------------ *)
(* Router determinism across domain counts                            *)
(* ------------------------------------------------------------------ *)

let route_with_domains ?(strategy = F.Router.Tree_alg Fr_core.Routing_alg.ikmb) spec ~domains =
  let config = { (F.Router.config_with ~max_passes:3 ()) with F.Router.strategy } in
  let circuit = F.Circuits.generate spec in
  let rrg = F.Rrg.build (F.Circuits.arch_for spec ~channel_width:14) in
  match F.Router.route ~config ~domains rrg circuit with
  | Ok stats -> stats
  | Error f ->
      Alcotest.failf "%s failed to route at W=14 with %d domains (%d passes)"
        spec.F.Circuits.circuit domains f.F.Router.passes_tried

let canonical_trees stats =
  List.map
    (fun r ->
      (r.F.Router.net.F.Netlist.net_name, List.sort compare r.F.Router.tree.G.Tree.edges))
    stats.F.Router.routed
  |> List.sort compare

(* Everything quality-related must match, and so must the search work:
   every solve creates its own distance caches, so its work is a function
   of the net and the frozen state, whichever domain runs it. *)
let quality stats =
  ( stats.F.Router.passes,
    stats.F.Router.total_wirelength,
    stats.F.Router.total_max_path,
    stats.F.Router.peak_occupancy,
    stats.F.Router.par_batches,
    stats.F.Router.par_conflicts )

let check_same_as_serial what ~serial ~domains par =
  let check_int field f =
    Alcotest.(check int) (Printf.sprintf "%s: %s (domains=%d)" what field domains) (f serial) (f par)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: stats record %d domains" what domains)
    domains par.F.Router.domains;
  if canonical_trees par <> canonical_trees serial then
    Alcotest.failf "%s: %d-domain trees differ from serial" what domains;
  if quality par <> quality serial then
    Alcotest.failf "%s: %d-domain quality stats differ from serial" what domains;
  check_int "dijkstra_runs" (fun s -> s.F.Router.dijkstra_runs);
  check_int "settled_nodes" (fun s -> s.F.Router.settled_nodes);
  check_int "future_cost_evals" (fun s -> s.F.Router.future_cost_evals)

(* The serial route's quality, pinned: wirelength and total max path at
   W=14 (IKMB, 3 passes).  Any drift is a change to the routed trees. *)
let goldens = [ ("term1", (767., 649.)); ("apex7", (1083., 925.)) ]

let test_determinism_across_domains () =
  List.iter
    (fun (name, (wirelength, max_path)) ->
      let spec = Option.get (F.Circuits.find_spec name) in
      let serial = route_with_domains spec ~domains:1 in
      Alcotest.(check bool)
        (name ^ ": waves actually batch") true
        (serial.F.Router.par_batches > 0);
      Alcotest.(check (float 0.)) (name ^ ": golden wirelength") wirelength
        serial.F.Router.total_wirelength;
      Alcotest.(check (float 0.)) (name ^ ": golden max path") max_path
        serial.F.Router.total_max_path;
      List.iter
        (fun domains -> check_same_as_serial name ~serial ~domains (route_with_domains spec ~domains))
        [ 2; 4 ])
    goldens;
  (* ZEL reads complete plain distance arrays for its triples: the only
     lookups two nets' solves could ever have shared. *)
  let spec = Option.get (F.Circuits.find_spec "term1") in
  let strategy = F.Router.Tree_alg (Option.get (Fr_core.Routing_alg.by_name "ZEL")) in
  let serial = route_with_domains ~strategy spec ~domains:1 in
  List.iter
    (fun domains ->
      check_same_as_serial "term1 ZEL" ~serial ~domains
        (route_with_domains ~strategy spec ~domains))
    [ 2; 4 ];
  (* The two-pin decomposition: no workload routes it, and its connections
     are the router's only goal-directed searches, so their work is pinned
     here (1 pass, wirelength 1163, max path 622). *)
  let strategy = F.Router.Two_pin_decomposition in
  let serial = route_with_domains ~strategy spec ~domains:1 in
  let pin field want got = Alcotest.(check int) ("term1 two-pin: " ^ field) want got in
  pin "passes" 1 serial.F.Router.passes;
  Alcotest.(check (float 0.)) "term1 two-pin: wirelength" 1163. serial.F.Router.total_wirelength;
  Alcotest.(check (float 0.)) "term1 two-pin: max path" 622. serial.F.Router.total_max_path;
  pin "dijkstra_runs" 192 serial.F.Router.dijkstra_runs;
  pin "settled_nodes" 77_084 serial.F.Router.settled_nodes;
  pin "future_cost_evals" 129_239 serial.F.Router.future_cost_evals;
  List.iter
    (fun domains ->
      check_same_as_serial "term1 two-pin" ~serial ~domains
        (route_with_domains ~strategy spec ~domains))
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "each job runs exactly once" `Quick test_pool_each_job_once;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_in_order;
          Alcotest.test_case "job exceptions surface" `Quick test_pool_exception_surfaces;
          Alcotest.test_case "pool reused across waves" `Quick test_pool_reuse_across_waves;
          Alcotest.test_case "shutdown semantics" `Quick test_pool_shutdown;
          Alcotest.test_case "domain counts outside [1, max_domains] rejected" `Quick test_pool_domain_cap;
        ] );
      ( "views",
        [
          Alcotest.test_case "reads work, flag set" `Quick test_view_reads;
          Alcotest.test_case "mutators raise" `Quick test_view_mutators_raise;
          Alcotest.test_case "base mutations visible" `Quick test_view_sees_base_mutations;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "domains 1/2/4 route identically" `Slow
            test_determinism_across_domains;
        ] );
    ]
