(* Tests for the serve layer: the JSON codec, the daemon wire protocol,
   and the incremental (ECO) routing sessions it fronts — including the
   differential-exactness contract (an ECO apply must reproduce the
   from-scratch route of the edited netlist bit-for-bit) and a live
   in-process daemon round-trip over a Unix socket. *)

module F = Fr_fpga
module S = Fr_serve

let pin row col side slot = { F.Netlist.row; col; side; slot }

(* Same tiny 3-net circuit the router tests use. *)
let tiny_circuit () =
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

let arch_of (c : F.Netlist.circuit) w =
  F.Arch.xc4000 ~rows:c.F.Netlist.rows ~cols:c.F.Netlist.cols ~channel_width:w

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let reparse v =
  match S.Json.of_string (S.Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let v =
    S.Json.(
      Obj
        [
          ("a", Arr [ Num 1.; Num (-2.5); Null; Bool true; Bool false ]);
          ("s", Str "he\"llo\\ \n\t ctrl:\x01");
          ("empty_obj", Obj []);
          ("empty_arr", Arr []);
          ("big", Num 123456789012.);
        ])
  in
  Alcotest.(check bool) "roundtrip preserves value" true (reparse v = v);
  let line = S.Json.to_string v in
  Alcotest.(check bool) "one frame: no raw newline" true (not (String.contains line '\n'));
  Alcotest.(check string) "integers print exactly" "42" S.Json.(to_string (of_int 42));
  Alcotest.(check (option int)) "int accessor" (Some 42) S.Json.(int (of_int 42));
  Alcotest.(check (option int)) "int rejects fractions" None S.Json.(int (Num 1.5))

let test_json_unicode () =
  (* \u escapes, including a surrogate pair, decode to UTF-8 bytes. *)
  match S.Json.of_string "\"\\u0041\\u00e9\\ud83d\\ude00\\n\"" with
  | Ok (S.Json.Str s) -> Alcotest.(check string) "utf-8" "A\xc3\xa9\xf0\x9f\x98\x80\n" s
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "unicode parse failed: %s" e

let test_json_rejects () =
  let bad s =
    match S.Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
  in
  bad "{\"a\":1,}";
  bad "[1] garbage";
  bad "tru";
  bad "\"unterminated";
  bad "{\"a\" 1}";
  bad ""

(* Nesting is capped at 512 levels, so a run of brackets is rejected at
   the cap instead of recursing once per byte. *)
let test_json_depth_cap () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match S.Json.of_string (nested 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 512 rejected: %s" e);
  Alcotest.(check bool) "depth 513 rejected" true (Result.is_error (S.Json.of_string (nested 513)));
  let objects d = String.concat "" (List.init d (fun _ -> "{\"a\":")) ^ "0" ^ String.make d '}' in
  Alcotest.(check bool) "objects count too" true
    (Result.is_ok (S.Json.of_string (objects 512))
    && Result.is_error (S.Json.of_string (objects 513)));
  let t0 = Unix.gettimeofday () in
  let r = S.Json.of_string (String.make (1 lsl 20) '[') in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "1 MiB of '[' rejected" true (Result.is_error r);
  Alcotest.(check bool) (Printf.sprintf "in under 0.1 s (%.3f s)" dt) true (dt < 0.1)

(* JSON has no infinities: a literal that overflows the float range is an
   error, and a non-finite number renders as null, so every rendered line
   parses again. *)
let test_json_non_finite () =
  (match S.Json.of_string "[1e400,-1e400]" with
  | Error e -> Alcotest.(check string) "overflow rejected" "number out of range at offset 1" e
  | Ok v -> Alcotest.failf "accepted %s" (S.Json.to_string v));
  Alcotest.(check bool) "negative overflow rejected" true
    (Result.is_error (S.Json.of_string "-1e400"));
  Alcotest.(check bool) "underflow reads as zero" true
    (S.Json.of_string "1e-400" = Ok (S.Json.Num 0.));
  let line = S.Json.(to_string (Arr [ Num infinity; Num neg_infinity; Num nan; Num 1.5 ])) in
  Alcotest.(check string) "non-finite renders as null" "[null,null,null,1.5]" line;
  Alcotest.(check bool) "and parses again" true (Result.is_ok (S.Json.of_string line))

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let parse_line s =
  match S.Json.of_string s with
  | Error e -> Alcotest.failf "bad test JSON: %s" e
  | Ok j -> S.Protocol.parse_request j

let test_protocol_parse_route () =
  match
    parse_line
      {|{"cmd":"route","circuit":"x","width":6,"mode":"waves","domains":2,"max_passes":5}|}
  with
  | Ok (S.Protocol.Route r) ->
      Alcotest.(check string) "circuit" "x" r.S.Protocol.circuit_text;
      Alcotest.(check int) "width" 6 r.S.Protocol.width;
      Alcotest.(check int) "domains" 2 r.S.Protocol.domains;
      Alcotest.(check bool) "mode" true (r.S.Protocol.mode = F.Router.Waves);
      Alcotest.(check (option int)) "max_passes" (Some 5) r.S.Protocol.max_passes
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error e -> Alcotest.failf "route parse failed: %s" e

let test_protocol_parse_route_defaults () =
  match parse_line {|{"cmd":"route","circuit":"x","width":4}|} with
  | Ok (S.Protocol.Route r) ->
      Alcotest.(check bool) "mode defaults to waves" true (r.S.Protocol.mode = F.Router.Waves);
      Alcotest.(check int) "domains default 1" 1 r.S.Protocol.domains;
      Alcotest.(check (option int)) "no pass cap" None r.S.Protocol.max_passes
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error e -> Alcotest.failf "route parse failed: %s" e

let test_protocol_parse_eco () =
  match
    parse_line
      {|{"cmd":"eco","deltas":[{"op":"remove","name":"a"},{"op":"retime","name":"b","source":"1,4,S,0","sinks":["1,1,S,0"]},{"op":"add","net":"net d 2,0,S,0 2,1,S,0"}]}|}
  with
  | Ok (S.Protocol.Eco [ d1; d2; d3 ]) ->
      Alcotest.(check bool) "remove" true (d1 = F.Router.Eco.Remove_net "a");
      (match d2 with
      | F.Router.Eco.Retime_net (name, src, sinks) ->
          Alcotest.(check string) "retime name" "b" name;
          Alcotest.(check bool) "retime source" true
            (src = pin 1 4 F.Rrg.South 0);
          Alcotest.(check int) "retime sinks" 1 (List.length sinks)
      | _ -> Alcotest.fail "second delta is not a retime");
      (match d3 with
      | F.Router.Eco.Add_net n ->
          Alcotest.(check string) "add name" "d" n.F.Netlist.net_name;
          Alcotest.(check int) "add sinks" 1 (List.length n.F.Netlist.sinks)
      | _ -> Alcotest.fail "third delta is not an add")
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error e -> Alcotest.failf "eco parse failed: %s" e

let test_protocol_parse_rest () =
  Alcotest.(check bool) "stats" true (parse_line {|{"cmd":"stats"}|} = Ok S.Protocol.Stats);
  Alcotest.(check bool) "shutdown" true (parse_line {|{"cmd":"shutdown"}|} = Ok S.Protocol.Shutdown);
  Alcotest.(check bool) "checkpoint save" true
    (parse_line {|{"cmd":"checkpoint"}|} = Ok (S.Protocol.Checkpoint S.Protocol.Save));
  Alcotest.(check bool) "checkpoint restore" true
    (parse_line {|{"cmd":"checkpoint","restore":3}|}
    = Ok (S.Protocol.Checkpoint (S.Protocol.Restore 3)));
  let bad s =
    match parse_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed request %s" s
  in
  bad {|{"cmd":"fly"}|};
  bad {|{"nocmd":1}|};
  bad {|{"cmd":"route","width":4}|};
  bad {|{"cmd":"route","circuit":"x","width":4,"mode":"psychic"}|};
  (* Domain counts outside [1, Pool.max_domains] never reach a pool. *)
  bad {|{"cmd":"route","circuit":"x","width":4,"domains":0}|};
  bad
    (Printf.sprintf {|{"cmd":"route","circuit":"x","width":4,"domains":%d}|}
       (Fr_util.Pool.max_domains + 1));
  bad {|{"cmd":"route","circuit":"x","width":4,"domains":100000}|};
  (* A pass cap below 1 would run one pass anyway: rejected, not clamped. *)
  bad {|{"cmd":"route","circuit":"x","width":4,"max_passes":0}|};
  bad {|{"cmd":"route","circuit":"x","width":4,"max_passes":-5}|};
  Alcotest.(check bool) "max_passes 1 accepted" true
    (match parse_line {|{"cmd":"route","circuit":"x","width":4,"max_passes":1}|} with
    | Ok (S.Protocol.Route r) -> r.S.Protocol.max_passes = Some 1
    | _ -> false);
  (* Negotiated mode stops on its own iteration limits: a pass cap beside
     it would be ignored, so it is rejected. *)
  bad {|{"cmd":"route","circuit":"x","width":4,"mode":"negotiated","max_passes":1}|};
  bad {|{"cmd":"route","circuit":"x","width":4,"mode":"negotiated","max_passes":20}|};
  Alcotest.(check bool) "negotiated without max_passes accepted" true
    (match parse_line {|{"cmd":"route","circuit":"x","width":4,"mode":"negotiated"}|} with
    | Ok (S.Protocol.Route r) -> r.S.Protocol.max_passes = None
    | _ -> false);
  bad {|{"cmd":"eco"}|};
  bad {|{"cmd":"eco","deltas":[{"op":"warp"}]}|};
  bad {|{"cmd":"eco","deltas":[{"op":"retime","name":"b","source":"bogus","sinks":[]}]}|};
  bad {|{"cmd":"checkpoint","restore":"one"}|};
  Alcotest.(check bool) "mode names roundtrip" true
    (match
       parse_line
         (Printf.sprintf {|{"cmd":"route","circuit":"x","width":4,"mode":"%s"}|}
            (S.Protocol.mode_name F.Router.Negotiated))
     with
    | Ok (S.Protocol.Route r) -> r.S.Protocol.mode = F.Router.Negotiated
    | _ -> false)

let test_routing_digest_invariance () =
  let circuit = tiny_circuit () in
  let rrg = F.Rrg.build (arch_of circuit 6) in
  match F.Router.route rrg circuit with
  | Error _ -> Alcotest.fail "route failed"
  | Ok s ->
      let d = S.Protocol.routing_digest s.F.Router.routed in
      Alcotest.(check string) "net order does not matter" d
        (S.Protocol.routing_digest (List.rev s.F.Router.routed));
      (match s.F.Router.routed with
      | _ :: rest ->
          Alcotest.(check bool) "a missing net changes the digest" true
            (S.Protocol.routing_digest rest <> d)
      | [] -> Alcotest.fail "no routed nets")

(* ------------------------------------------------------------------ *)
(* Router.Eco differential exactness                                  *)
(* ------------------------------------------------------------------ *)

let scratch_digest ?(config = F.Router.default_config) (circuit : F.Netlist.circuit) ~w =
  let rrg = F.Rrg.build (arch_of circuit w) in
  match F.Router.route ~config rrg circuit with
  | Ok s -> S.Protocol.routing_digest s.F.Router.routed
  | Error _ -> Alcotest.failf "scratch route of %s failed" circuit.F.Netlist.circuit_name

let eco_create ?config ?domains circuit ~w =
  let rrg = F.Rrg.build (arch_of circuit w) in
  match F.Router.Eco.create ?config ?domains rrg circuit with
  | Ok x -> x
  | Error _ -> Alcotest.failf "eco create on %s failed" circuit.F.Netlist.circuit_name

let eco_digest eco = S.Protocol.routing_digest (F.Router.Eco.routed eco)

(* Whether a session's graph [a] holds the state a scratch route left in
   [b]: every node's enable bit and every edge's weight, bit for bit.
   Names the first difference. *)
let graph_diff (a : F.Rrg.t) (b : F.Rrg.t) =
  let module Gs = Fr_graph.Gstate in
  let ga = a.F.Rrg.graph and gb = b.F.Rrg.graph in
  let first n differs = List.find_opt differs (List.init n Fun.id) in
  let node_diff v = Gs.node_enabled ga v <> Gs.node_enabled gb v
  and edge_diff e = not (Float.equal (Gs.weight ga e) (Gs.weight gb e)) in
  if Gs.num_nodes ga <> Gs.num_nodes gb || Gs.num_edges ga <> Gs.num_edges gb then
    Some "graph sizes differ"
  else
    match (first (Gs.num_nodes ga) node_diff, first (Gs.num_edges ga) edge_diff) with
    | Some v, _ ->
        Some (Printf.sprintf "node %d enabled: %b, scratch %b" v (Gs.node_enabled ga v)
                (Gs.node_enabled gb v))
    | None, Some e ->
        Some (Printf.sprintf "edge %d weight: %h, scratch %h" e (Gs.weight ga e) (Gs.weight gb e))
    | None, None -> None

(* Play an edit script on one session per domain count.  After every step
   each session must hold the from-scratch route of its edited netlist,
   with the scratch route's quality, and leave its graph in the state the
   scratch route leaves (every node bit, every weight); the rip-up
   accounting covers the netlist and, being part of the deterministic
   schedule, agrees across domain counts.  Returns each step's name with
   every session's [eco_stats], first session first. *)
let play_script ~config ~domains (circuit : F.Netlist.circuit) ~w script =
  let tag d s =
    Printf.sprintf "%s/%s/d%d: %s" circuit.F.Netlist.circuit_name
      (S.Protocol.mode_name config.F.Router.mode) d s
  in
  let quality (s : F.Router.stats) =
    (s.F.Router.passes, s.F.Router.total_wirelength, s.F.Router.total_max_path,
     s.F.Router.peak_occupancy)
  in
  let check step applied =
    let _, _, eco1, es1 = List.hd applied in
    let edited = F.Router.Eco.circuit eco1 in
    let scratch_rrg = F.Rrg.build (arch_of edited w) in
    let scratch =
      match F.Router.route ~config scratch_rrg edited with
      | Ok s -> s
      | Error _ -> Alcotest.failf "%s: scratch route failed" step
    in
    List.map
      (fun (d, rrg, eco, es) ->
        let open F.Router.Eco in
        Alcotest.(check string) (tag d (step ^ " = scratch"))
          (S.Protocol.routing_digest scratch.F.Router.routed) (eco_digest eco);
        if quality es.stats <> quality scratch then
          Alcotest.fail (tag d (step ^ " quality differs from scratch"));
        Option.iter
          (fun diff -> Alcotest.fail (tag d (step ^ " graph differs from scratch: " ^ diff)))
          (graph_diff rrg scratch_rrg);
        Alcotest.(check int) (tag d (step ^ " rip accounting")) es.nets_total
          (es.nets_ripped + es.nets_reused);
        Alcotest.(check (pair int int))
          (tag d (step ^ " rip accounting = first session"))
          (es1.nets_ripped, es1.nets_reused) (es.nets_ripped, es.nets_reused);
        (d, es))
      applied
  in
  let sessions =
    List.map
      (fun d ->
        let rrg = F.Rrg.build (arch_of circuit w) in
        match F.Router.Eco.create ~config ~domains:d rrg circuit with
        | Ok (eco, es) -> (d, rrg, eco, es)
        | Error _ -> Alcotest.failf "eco create on %s failed" circuit.F.Netlist.circuit_name)
      domains
  in
  ignore (check "create" sessions);
  let steps =
    List.map
      (fun (step, deltas) ->
        let applied =
          List.map
            (fun (d, rrg, eco, _) ->
              match F.Router.Eco.apply eco deltas with
              | Ok es -> (d, rrg, eco, es)
              | Error _ -> Alcotest.fail (tag d (step ^ " apply failed")))
            sessions
        in
        (step, check step applied))
      script
  in
  List.iter (fun (_, _, eco, _) -> F.Router.Eco.close eco) sessions;
  steps

(* A step's [eco_stats] in the first session; every session's rip
   accounting equals it. *)
let first_session steps step = snd (List.hd (List.assoc step steps))

let ripped steps step = (first_session steps step).F.Router.Eco.nets_ripped

(* Each session's graph writes in a step: journal mutations and rollbacks. *)
let graph_writes steps step =
  List.map
    (fun (d, es) ->
      let s = es.F.Router.Eco.stats in
      (d, (s.F.Router.mutations, s.F.Router.rollbacks)))
    (List.assoc step steps)

(* Every delta kind on the tiny circuit, in both modes, serial and on 2
   domains.  Negotiated mode keeps nothing between requests: every apply
   negotiates every net from the session base.  The last step removes b,
   which has the fewest pins and routes last, alone in its batch: the new
   schedule ends with a stored batch left over, whose commits the walk
   must roll back out of the graph. *)
let test_eco_differential_deltas () =
  let script =
    [
      ("remove", [ F.Router.Eco.Remove_net "c" ]);
      ( "add",
        [
          F.Router.Eco.Add_net
            (F.Netlist.make_net ~name:"d" ~source:(pin 2 0 F.Rrg.South 0)
               ~sinks:[ pin 2 1 F.Rrg.South 0 ]);
        ] );
      ("retime", [ F.Router.Eco.Retime_net ("b", pin 1 4 F.Rrg.South 0, [ pin 1 1 F.Rrg.South 0 ]) ]);
      ( "mixed",
        [
          F.Router.Eco.Remove_net "d";
          F.Router.Eco.Retime_net ("b", pin 1 1 F.Rrg.South 0, [ pin 1 4 F.Rrg.South 0 ]);
        ] );
      ("remove the last batch", [ F.Router.Eco.Remove_net "b" ]);
    ]
  in
  List.iter
    (fun mode ->
      let config = F.Router.config_with ~mode () in
      let steps = play_script ~config ~domains:[ 1; 2 ] (tiny_circuit ()) ~w:6 script in
      if mode = F.Router.Negotiated then
        List.iter
          (fun (step, _) ->
            let es = first_session steps step in
            let open F.Router.Eco in
            Alcotest.(check int) (step ^ ": negotiated reuses no net") 0 es.nets_reused;
            Alcotest.(check int) (step ^ ": negotiated rips every net") es.nets_total
              es.nets_ripped)
          steps)
    [ F.Router.Waves; F.Router.Negotiated ]

(* The last element first: a net's terminals with its last sink as the new
   source. *)
let last_first l =
  match List.rev l with
  | last :: rest_rev -> last :: List.rev rest_rev
  | [] -> []

let term1 () = F.Circuits.generate (Option.get (F.Circuits.find_spec "term1"))

let net_named (circuit : F.Netlist.circuit) name =
  List.find (fun n -> String.equal n.F.Netlist.net_name name) circuit.F.Netlist.nets

(* A driver swap that keeps the pins: the first sink becomes the source and
   the old source the last sink, as the benchmark's edit deck does; and
   the retime that undoes it. *)
let rotate (n : F.Netlist.net) =
  match n.F.Netlist.sinks with
  | s :: rest -> F.Router.Eco.Retime_net (n.F.Netlist.net_name, s, rest @ [ n.F.Netlist.source ])
  | [] -> Alcotest.fail "net with no sinks"

let unrotate (n : F.Netlist.net) =
  F.Router.Eco.Retime_net (n.F.Netlist.net_name, n.F.Netlist.source, n.F.Netlist.sinks)

(* A waves batch holds at most 8 nets (the router's batch cap). *)
let par_batch = 8

(* term1 at W=14 in waves mode on domains 1/2/4: a removal, an addition, a
   terminal change (retime) and a mixed request, all on nets near the end
   of the net order, where the waves schedule keeps an unchanged batch
   prefix — the locality the incremental path exists to exploit, so some
   step must rip fewer nets than the netlist holds.  Then a driver swap on
   the 11-pin n67, near the front of the order, and its undo: IKMB builds a
   tree from the terminal set alone, so n67's batch, solved on a copy of
   its start state, lands what the ledger stored, and the session keeps
   its graph as it stands: no journal write, no rollback. *)
let test_eco_term1_script () =
  let circuit = term1 () in
  let nets = Array.of_list circuit.F.Netlist.nets in
  let n = Array.length nets in
  let a = nets.(n - 1) and b = nets.(n - 2) and m = nets.(n - 3) in
  let rotated =
    match last_first (F.Netlist.net_pins b) with
    | source :: sinks -> F.Router.Eco.Retime_net (b.F.Netlist.net_name, source, sinks)
    | [] -> Alcotest.fail "net with no pins"
  in
  let fresh =
    F.Netlist.make_net ~name:(a.F.Netlist.net_name ^ "_eco") ~source:a.F.Netlist.source
      ~sinks:a.F.Netlist.sinks
  in
  let script =
    [
      ("remove", [ F.Router.Eco.Remove_net a.F.Netlist.net_name ]);
      ("add", [ F.Router.Eco.Add_net fresh ]);
      ("retime", [ rotated ]);
      ( "mixed",
        [
          F.Router.Eco.Remove_net m.F.Netlist.net_name;
          unrotate b;
        ] );
      ("rotate n67", [ rotate (net_named circuit "n67") ]);
      ("restore n67", [ unrotate (net_named circuit "n67") ]);
    ]
  in
  let config = F.Router.config_with ~max_passes:8 () in
  let steps = play_script ~config ~domains:[ 1; 2; 4 ] circuit ~w:14 script in
  Alcotest.(check bool) "some step ripped fewer nets than the total" true
    (List.exists
       (fun (step, _) -> ripped steps step < (first_session steps step).F.Router.Eco.nets_total)
       steps);
  List.iter
    (fun step ->
      let r = ripped steps step in
      if r > par_batch then Alcotest.failf "%s ripped %d nets, more than one batch" step r;
      List.iter
        (fun (d, writes) ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s/d%d: graph mutations and rollbacks" step d)
            (0, 0) writes)
        (graph_writes steps step))
    [ "rotate n67"; "restore n67" ]

(* Under IDOM, a source-rooted construction, a driver swap does change the
   net's tree, so the landing differs from the ledger's and the rest of
   the schedule must be solved again: every step equals scratch, rips the
   nets the schedule suffix holds (pinned) and rolls the graph back once,
   to the edited batch's mark. *)
let test_eco_term1_idom_rotations () =
  let circuit = term1 () in
  let n14 = net_named circuit "n14" and n29 = net_named circuit "n29" in
  let script =
    [
      ("rotate n14", [ rotate n14 ]);
      ("restore n14", [ unrotate n14 ]);
      ("rotate n29", [ rotate n29 ]);
      ("restore n29", [ unrotate n29 ]);
    ]
  in
  let config = F.Router.config_with ~alg:Fr_core.Routing_alg.idom ~max_passes:8 () in
  let steps = play_script ~config ~domains:[ 1; 2 ] circuit ~w:14 script in
  List.iter
    (fun (step, expected) ->
      Alcotest.(check int) (step ^ " nets ripped") expected (ripped steps step);
      List.iter
        (fun (d, (_, rollbacks)) ->
          Alcotest.(check int) (Printf.sprintf "%s/d%d: rollbacks" step d) 1 rollbacks)
        (graph_writes steps step))
    [ ("rotate n14", 58); ("restore n14", 58); ("rotate n29", 44); ("restore n29", 44) ]

let test_eco_invalid_deltas_leave_session () =
  let circuit = tiny_circuit () in
  let eco, _ = eco_create circuit ~w:6 in
  let before = eco_digest eco in
  let nets_before = List.length (F.Router.Eco.circuit eco).F.Netlist.nets in
  let expect_invalid what deltas =
    match F.Router.Eco.apply eco deltas with
    | exception Invalid_argument _ -> ()
    | Ok _ | Error _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect_invalid "unknown net removed" [ F.Router.Eco.Remove_net "zz" ];
  expect_invalid "duplicate net name"
    [
      F.Router.Eco.Add_net
        (F.Netlist.make_net ~name:"a" ~source:(pin 2 0 F.Rrg.South 0)
           ~sinks:[ pin 2 1 F.Rrg.South 0 ]);
    ];
  expect_invalid "pin already owned"
    [
      F.Router.Eco.Add_net
        (F.Netlist.make_net ~name:"d" ~source:(pin 1 1 F.Rrg.South 0)
           ~sinks:[ pin 2 1 F.Rrg.South 0 ]);
    ];
  expect_invalid "retime of unknown net"
    [ F.Router.Eco.Retime_net ("zz", pin 2 0 F.Rrg.South 0, [ pin 2 1 F.Rrg.South 0 ]) ];
  Alcotest.(check string) "routing untouched" before (eco_digest eco);
  Alcotest.(check int) "netlist untouched" nets_before
    (List.length (F.Router.Eco.circuit eco).F.Netlist.nets);
  (* The session is still usable after rejected deltas. *)
  (match F.Router.Eco.apply eco [ F.Router.Eco.Remove_net "a" ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "session unusable after a rejected delta");
  Alcotest.(check string) "still differential" (scratch_digest (F.Router.Eco.circuit eco) ~w:6)
    (eco_digest eco);
  F.Router.Eco.close eco

(* term1's blocks have 2 pin slots per side, so a slot-2 pin names no RRG
   node.  The apply that brings one in raises before it touches anything,
   so the session's next edit still equals a scratch route; a scratch route
   and a new session reject the pin the same way. *)
let test_eco_rejects_missing_pin_slot () =
  let circuit = term1 () in
  let n67 = net_named circuit "n67" in
  let bad = { n67.F.Netlist.source with F.Netlist.slot = 2 } in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let eco, _ = eco_create circuit ~w:14 in
  expect_invalid "apply" (fun () ->
      F.Router.Eco.apply eco [ F.Router.Eco.Retime_net ("n67", bad, n67.F.Netlist.sinks) ]);
  (match F.Router.Eco.apply eco [ rotate (net_named circuit "n86") ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "the edit after the rejected one did not route");
  Alcotest.(check string) "next edit = scratch" (scratch_digest (F.Router.Eco.circuit eco) ~w:14)
    (eco_digest eco);
  F.Router.Eco.close eco;
  let with_bad =
    {
      circuit with
      F.Netlist.nets =
        List.map
          (fun n ->
            if String.equal n.F.Netlist.net_name "n67" then { n with F.Netlist.source = bad } else n)
          circuit.F.Netlist.nets;
    }
  in
  let rrg = F.Rrg.build (arch_of circuit 14) in
  expect_invalid "route" (fun () -> F.Router.route rrg with_bad);
  expect_invalid "create" (fun () -> F.Router.Eco.create ~domains:2 rrg with_bad)

let test_eco_failed_apply_restores_session () =
  (* A 1-track session holding just net b; growing it to the full tiny
     circuit is infeasible at W=1, so the apply must fail and roll the
     session back to a usable single-net state.  Both modes restore by
     replaying the ledger. *)
  List.iter
    (fun mode ->
      let config = F.Router.config_with ~mode () in
      let circuit =
        { (tiny_circuit ()) with F.Netlist.nets = [ List.nth (tiny_circuit ()).F.Netlist.nets 1 ] }
      in
      let eco, _ = eco_create ~config circuit ~w:1 in
      let before = eco_digest eco in
      let tiny = tiny_circuit () in
      let a = List.nth tiny.F.Netlist.nets 0 and c = List.nth tiny.F.Netlist.nets 2 in
      (match F.Router.Eco.apply eco [ F.Router.Eco.Add_net a; F.Router.Eco.Add_net c ] with
      | Ok _ -> Alcotest.fail "tiny circuit should not route at W=1"
      | Error f -> Alcotest.(check bool) "failure names nets" true (f.F.Router.failed_nets <> []));
      Alcotest.(check int) "netlist restored" 1
        (List.length (F.Router.Eco.circuit eco).F.Netlist.nets);
      Alcotest.(check string) "routing restored" before (eco_digest eco);
      (* Still usable: a feasible delta applies after the failed one. *)
      (match
         F.Router.Eco.apply eco
           [
             F.Router.Eco.Add_net
               (F.Netlist.make_net ~name:"d" ~source:(pin 3 0 F.Rrg.South 0)
                  ~sinks:[ pin 3 1 F.Rrg.South 0 ]);
           ]
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "session unusable after a failed apply");
      Alcotest.(check string) "differential after recovery"
        (scratch_digest ~config (F.Router.Eco.circuit eco) ~w:1)
        (eco_digest eco);
      F.Router.Eco.close eco)
    [ F.Router.Waves; F.Router.Negotiated ]

(* ------------------------------------------------------------------ *)
(* Server + Client over a live socket                                 *)
(* ------------------------------------------------------------------ *)

let field name resp = S.Json.member name resp

let field_str name resp =
  match Option.bind (field name resp) S.Json.str with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" name (S.Json.to_string resp)

let field_int name resp =
  match Option.bind (field name resp) S.Json.int with
  | Some i -> i
  | None -> Alcotest.failf "response lacks int field %S: %s" name (S.Json.to_string resp)

let expect_ok resp =
  match Option.bind (field "ok" resp) S.Json.bool with
  | Some true -> resp
  | _ -> Alcotest.failf "request failed: %s" (S.Json.to_string resp)

let test_server_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_test_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let client = S.Client.connect ~socket:path in
  let request j =
    match S.Client.request client j with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  let circuit = tiny_circuit () in
  let route_resp =
    expect_ok
      (request
         (S.Json.Obj
            [
              ("cmd", S.Json.Str "route");
              ("circuit", S.Json.Str (F.Netlist.to_string circuit));
              ("width", S.Json.of_int 6);
            ]))
  in
  Alcotest.(check string) "routed" "routed" (field_str "status" route_resp);
  let d0 = field_str "digest" route_resp in
  Alcotest.(check string) "daemon = local scratch" (scratch_digest circuit ~w:6) d0;
  (* Out-of-session and malformed requests answer ok:false, in-band. *)
  let bad = request (S.Json.Obj [ ("cmd", S.Json.Str "fly") ]) in
  Alcotest.(check bool) "unknown cmd rejected" true
    (Option.bind (field "ok" bad) S.Json.bool = Some false);
  (* A route whose circuit does not fit (an empty array, a width of 0, a
     width whose routing graph is over the architecture's cap) is
     answered in the architecture's own words, not as an internal error,
     and the session it would have replaced keeps serving (the digest
     checks below). *)
  List.iter
    (fun (what, text, width) ->
      let resp =
        request
          (S.Json.Obj
             [
               ("cmd", S.Json.Str "route");
               ("circuit", S.Json.Str text);
               ("width", S.Json.of_int width);
             ])
      in
      Alcotest.(check bool) (what ^ " rejected") true
        (Option.bind (field "ok" resp) S.Json.bool = Some false);
      let err = field_str "error" resp in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a plain error (%s)" what err)
        true
        (String.starts_with ~prefix:"Arch.make: " err))
    [
      ("empty array", "circuit x 0 3\n", 6);
      ("width 0", F.Netlist.to_string circuit, 0);
      ("width 100000", F.Netlist.to_string circuit, 100000);
    ];
  let cp = expect_ok (request (S.Json.Obj [ ("cmd", S.Json.Str "checkpoint") ])) in
  let cp_id = field_int "id" cp in
  let eco_resp =
    expect_ok
      (request
         (S.Json.Obj
            [
              ("cmd", S.Json.Str "eco");
              ( "deltas",
                S.Json.Arr
                  [
                    (* b has the fewest pins, so it routes last: removing it
                       keeps the whole surviving schedule prefix. *)
                    S.Json.Obj
                      [ ("op", S.Json.Str "remove"); ("name", S.Json.Str "b") ];
                  ] );
            ]))
  in
  let edited = { circuit with F.Netlist.nets = List.filter (fun (n : F.Netlist.net) -> n.F.Netlist.net_name <> "b") circuit.F.Netlist.nets } in
  Alcotest.(check string) "eco = local scratch of edited" (scratch_digest edited ~w:6)
    (field_str "digest" eco_resp);
  Alcotest.(check bool) "eco ripped fewer than total" true
    (field_int "nets_ripped" eco_resp < field_int "nets_total" eco_resp
    || field_int "nets_total" eco_resp = 0);
  let restore_resp =
    expect_ok
      (request (S.Json.Obj [ ("cmd", S.Json.Str "checkpoint"); ("restore", S.Json.of_int cp_id) ]))
  in
  Alcotest.(check string) "restore returns to checkpoint routing" d0
    (field_str "digest" restore_resp);
  let stats = expect_ok (request (S.Json.Obj [ ("cmd", S.Json.Str "stats") ])) in
  Alcotest.(check bool) "session live" true
    (Option.bind (field "session" stats) S.Json.bool = Some true);
  Alcotest.(check string) "stats digest agrees" d0 (field_str "digest" stats);
  (* route, checkpoint, eco, restore dispatched before this stats call;
     the malformed "fly" line never reached dispatch. *)
  Alcotest.(check bool) "requests counted" true (field_int "requests" stats >= 4);
  ignore (expect_ok (request (S.Json.Obj [ ("cmd", S.Json.Str "shutdown") ])));
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A client that disconnects before reading its reply must cost only its
   own connection: the daemon may neither die of SIGPIPE nor leak the
   connection, and the request it already received still lands. *)
let test_server_survives_hangup () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_hangup_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let circuit = F.Circuits.generate (Option.get (F.Circuits.find_spec "term1")) in
  let w = 14 in
  let route =
    S.Json.to_string
      (S.Json.Obj
         [
           ("cmd", S.Json.Str "route");
           ("circuit", S.Json.Str (F.Netlist.to_string circuit));
           ("width", S.Json.of_int w);
         ])
    ^ "\n"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let rec send off =
    if off < String.length route then
      send (off + Unix.write_substring fd route off (String.length route - off))
  in
  send 0;
  Unix.close fd;
  let client = S.Client.connect ~socket:path in
  let request j =
    match S.Client.request client j with
    | Ok resp -> expect_ok resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  (* The abandoned route runs on its own connection thread; poll until its
     session lands (its reply write fails after the routing is done). *)
  let rec await tries =
    let stats = request (S.Json.Obj [ ("cmd", S.Json.Str "stats") ]) in
    if Option.bind (field "session" stats) S.Json.bool = Some true then stats
    else if tries = 0 then Alcotest.fail "the hung-up client's route never landed"
    else begin
      Thread.delay 0.05;
      await (tries - 1)
    end
  in
  let stats = await 1200 in
  Alcotest.(check string) "stats digest = scratch route" (scratch_digest circuit ~w)
    (field_str "digest" stats);
  ignore (request (S.Json.Obj [ ("cmd", S.Json.Str "shutdown") ]));
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A request line over the 1 MiB cap gets an error reply and a closed
   connection, so no peer can make the daemon buffer without bound; the
   daemon keeps serving other connections. *)
let test_server_rejects_oversized_line () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_long_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = String.make (2 * 1024 * 1024) '[' ^ "\n" in
  (* The daemon stops reading at the cap and closes, so the tail of this
     write may be refused. *)
  let rec send off =
    if off < String.length line then
      match Unix.write_substring fd line off (String.length line - off) with
      | n -> send (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  send 0;
  let ic = Unix.in_channel_of_descr fd in
  let reply = input_line ic in
  (match S.Json.of_string reply with
  | Ok j ->
      Alcotest.(check bool) "error reply" true (Option.bind (field "ok" j) S.Json.bool = Some false);
      Alcotest.(check bool) "names the cap" true
        (match Option.bind (field "error" j) S.Json.str with
        | Some e -> String.starts_with ~prefix:"request line longer than 1048576 bytes" e
        | None -> false)
  | Error e -> Alcotest.failf "reply is not JSON: %s" e);
  (* A closed connection reads as end of input, or as a reset when the
     daemon left the rest of the line unread. *)
  Alcotest.(check bool) "connection closed" true
    (match input_line ic with
    | _ -> false
    | exception (End_of_file | Sys_error _) -> true);
  close_in ic;
  let client = S.Client.connect ~socket:path in
  let request cmd =
    match S.Client.request client (S.Json.Obj [ ("cmd", S.Json.Str cmd) ]) with
    | Ok resp -> expect_ok resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  Alcotest.(check bool) "a new connection's stats still answers" true
    (Option.bind (field "session" (request "stats")) S.Json.bool = Some false);
  ignore (request "shutdown");
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A 1 MiB frame of '[', newline included, is inside the line cap: the
   JSON depth cap answers it with a parse error at once, and the
   connection stays open. *)
let test_server_rejects_deep_nesting () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_deep_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let exchange line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match S.Json.of_string (input_line ic) with
    | Ok j -> j
    | Error e -> Alcotest.failf "reply is not JSON: %s" e
  in
  let deep = exchange (String.make ((1 lsl 20) - 1) '[') in
  Alcotest.(check bool) "error reply" true (Option.bind (field "ok" deep) S.Json.bool = Some false);
  Alcotest.(check bool) "a JSON error at the depth cap" true
    (match Option.bind (field "error" deep) S.Json.str with
    | Some e -> String.starts_with ~prefix:"bad JSON: nesting deeper than 512" e
    | None -> false);
  let stats = expect_ok (exchange {|{"cmd":"stats"}|}) in
  Alcotest.(check bool) "the same connection answers stats" true
    (Option.bind (field "session" stats) S.Json.bool = Some false);
  ignore (expect_ok (exchange {|{"cmd":"shutdown"}|}));
  close_in ic;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A long-lived daemon keeps serving however many connections it has
   served: each connection's thread ends with its connection, and nothing
   keeps a trace of it. *)
let test_server_forgets_finished_connections () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_conns_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let request client cmd =
    match S.Client.request client (S.Json.Obj [ ("cmd", S.Json.Str cmd) ]) with
    | Ok resp -> expect_ok resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  let stats client = request client "stats" in
  for _ = 1 to 50 do
    let client = S.Client.connect ~socket:path in
    ignore (stats client);
    S.Client.close client
  done;
  let client = S.Client.connect ~socket:path in
  let last = stats client in
  (* A request counts after it is answered: the 50 before this one. *)
  Alcotest.(check int) "a final stats still answers" 50 (field_int "requests" last);
  ignore (request client "shutdown");
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A peer that connects and sends nothing owes no reply, so it cannot hold
   the shutdown: [serve_forever] returns within 1 s of the bye it sends
   another client, and a request sent after the bye gets an error reply
   and starts nothing. *)
let test_server_shutdown_skips_idle_peer () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_idle_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let returned = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        S.Server.serve_forever server;
        Atomic.set returned true)
      ()
  in
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_UNIX path);
  let late = S.Client.connect ~socket:path in
  let client = S.Client.connect ~socket:path in
  let request client cmd =
    match S.Client.request client (S.Json.Obj [ ("cmd", S.Json.Str cmd) ]) with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  (* Connections are accepted in order, so once [late] has an answer the
     idle connection has its thread too. *)
  ignore (expect_ok (request late "stats"));
  Alcotest.(check string) "bye" "bye" (field_str "status" (expect_ok (request client "shutdown")));
  let bye = Unix.gettimeofday () in
  let refused = request late "stats" in
  Alcotest.(check bool) "a request after the bye is refused" true
    (Option.bind (field "ok" refused) S.Json.bool = Some false);
  while (not (Atomic.get returned)) && Unix.gettimeofday () -. bye < 1. do
    Thread.delay 0.01
  done;
  let on_time = Atomic.get returned in
  (* Closing the idle peer ends a daemon that waited for it, so the join
     below returns either way. *)
  Unix.close idle;
  S.Client.close late;
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "serve_forever returned within 1 s of bye" true on_time;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* Four clients, each on its own connection, toggle their own net's
   terminal order an even number of times, so however the requests
   interleave the session ends on the netlist it started from: its digest
   must equal both the first route's and a fresh route's. *)
let test_server_concurrent_eco_clients () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fr_serve_clients_%d.sock" (Unix.getpid ()))
  in
  let server = S.Server.create ~socket:path in
  let th = Thread.create S.Server.serve_forever server in
  let request client j =
    match S.Client.request client j with
    | Ok resp -> expect_ok resp
    | Error e -> Alcotest.failf "framing failure: %s" e
  in
  let circuit_text =
    "circuit eco_serve 6 6\nnet a 0,0,E,0 2,3,W,0\nnet b 1,1,N,0 3,4,S,0 0,4,S,1\n\
     net c 3,0,N,0 1,2,S,0\nnet d 5,5,W,0 4,1,E,0\n"
  in
  let route =
    S.Json.Obj
      [
        ("cmd", S.Json.Str "route");
        ("circuit", S.Json.Str circuit_text);
        ("width", S.Json.of_int 6);
      ]
  in
  let main = S.Client.connect ~socket:path in
  let d0 = field_str "digest" (request main route) in
  let retime (net : F.Netlist.net) ~rotated =
    let pins = List.map (fun p -> S.Json.Str (F.Netlist.pin_to_string p)) (F.Netlist.net_pins net) in
    let pins = if rotated then last_first pins else pins in
    S.Json.Obj
      [
        ("cmd", S.Json.Str "eco");
        ( "deltas",
          S.Json.Arr
            [
              S.Json.Obj
                [
                  ("op", S.Json.Str "retime");
                  ("name", S.Json.Str net.F.Netlist.net_name);
                  ("source", List.hd pins);
                  ("sinks", S.Json.Arr (List.tl pins));
                ];
            ] );
      ]
  in
  let nets =
    match F.Netlist.of_string circuit_text with
    | Ok c -> Array.of_list c.F.Netlist.nets
    | Error e -> Alcotest.failf "bad fixture: %s" e
  in
  (* A check that fails on a client thread would die with the thread, so
     each client records its own failure for the main thread to report. *)
  let failed = Array.make (Array.length nets) None in
  let client k () =
    try
      let c = S.Client.connect ~socket:path in
      for j = 0 to 19 do
        ignore (request c (retime nets.(k) ~rotated:(j mod 2 = 0)))
      done;
      S.Client.close c
    with e -> failed.(k) <- Some (Printexc.to_string e)
  in
  List.iter Thread.join (List.init (Array.length nets) (fun k -> Thread.create (client k) ()));
  Array.iter (Option.iter (Alcotest.failf "a client failed: %s")) failed;
  let after = field_str "digest" (request main (S.Json.Obj [ ("cmd", S.Json.Str "stats") ])) in
  Alcotest.(check string) "back at the first route" d0 after;
  Alcotest.(check string) "= a fresh route" (field_str "digest" (request main route)) after;
  ignore (request main (S.Json.Obj [ ("cmd", S.Json.Str "shutdown") ]));
  S.Client.close main;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Fuzz: every parser of outside input                                *)
(* ------------------------------------------------------------------ *)

(* Seeds for the byte mutations: valid requests and netlists, plus the
   inputs that found or guard past defects (a non-finite number, empty
   input, nesting at and past the depth cap) and requests that mix valid
   and invalid fields. *)
let fuzz_seeds =
  let nested d = String.make d '[' ^ String.make d ']' in
  let tiny = F.Netlist.to_string (tiny_circuit ()) in
  [
    "";
    "[1e400,-1e400]";
    nested 512;
    nested 513;
    S.Json.(
      to_string
        (Obj
           [
             ("cmd", Str "route");
             ("circuit", Str tiny);
             ("width", of_int 6);
             ("mode", Str "negotiated");
             ("domains", of_int 2);
             ("max_passes", of_int 3);
           ]));
    {|{"cmd":"eco","deltas":[{"op":"add","net":"net d 3,0,S,0 3,1,S,0"},{"op":"remove","name":"b"},{"op":"retime","name":"a","source":"0,0,E,0","sinks":["2,3,W,0","3,1,N,0"]}]}|};
    {|{"cmd":"stats"}|};
    {|{"cmd":"checkpoint","restore":1}|};
    {|{"cmd":"shutdown"}|};
    {|{"cmd":"route","circuit":"circuit x 0 3","width":0,"domains":65,"mode":"waves"}|};
    {|{"cmd":"eco","deltas":[{"op":"add","net":"net z 0,0,N,0 0,0,N,0"},{"op":"retime","name":"a","source":"0,0,Q,0","sinks":[7]},{"op":"fly"}]}|};
    {|{"cmd":"checkpoint","restore":1.5e300,"cmd":"stats","s":"\ud83d\ude00\u0000"}|};
    tiny;
    "net a 0,0,N,0 1,1,S,0 2,2,W,1";
  ]

(* Bytes drawn mostly from the JSON and netlist alphabets, so random
   input gets past the first token often. *)
let fuzz_char =
  let alphabet = "{}[]\":,.-+0123456789eEtrufalsn\\ \n\tcircuitnetNESW#" in
  QCheck.Gen.(
    frequency [ (1, char); (4, map (String.get alphabet) (int_bound (String.length alphabet - 1))) ])

(* One byte edit at a position taken modulo the length: overwrite,
   insert, delete, truncate, or duplicate a short span. *)
let mutate s (kind, pos, c) =
  let n = String.length s in
  let i = if n = 0 then 0 else pos mod n in
  match kind with
  | 0 when n > 0 -> String.mapi (fun j d -> if j = i then c else d) s
  | 1 | 0 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | 2 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 3 -> String.sub s 0 i
  | _ ->
      let k = min (n - i) (1 + (Char.code c mod 16)) in
      String.sub s 0 (i + k) ^ String.sub s i (n - i)

let fuzz_input =
  let open QCheck.Gen in
  let random_bytes = string_size ~gen:fuzz_char (int_bound 300) in
  let edits = list_size (int_range 1 8) (triple (int_bound 4) nat fuzz_char) in
  let mutated = map2 (List.fold_left mutate) (oneofl fuzz_seeds) edits in
  QCheck.make ~print:String.escaped (frequency [ (1, random_bytes); (3, mutated) ])

(* A parser of outside input answers [Ok] or [Error] and raises nothing:
   none of the four documents an exception. *)
let total what f x =
  match f x with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let fuzz_test ~name f =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
    (QCheck.Test.make ~name ~count:3000 fuzz_input f)

let prop_fuzz_json =
  fuzz_test ~name:"Json.of_string total; parsed values round-trip" (fun s ->
      total "Json.of_string" S.Json.of_string s
      &&
      match S.Json.of_string s with
      | Error _ -> true
      | Ok v -> (
          match S.Json.of_string (S.Json.to_string v) with
          | Ok v' when v' = v -> true
          | _ -> QCheck.Test.fail_reportf "%s does not round-trip" (S.Json.to_string v)))

let prop_fuzz_protocol =
  fuzz_test ~name:"Protocol.parse_request total" (fun s ->
      match S.Json.of_string s with
      | Ok j -> total "Protocol.parse_request" S.Protocol.parse_request j
      | Error _ -> true)

let prop_fuzz_netlist =
  fuzz_test ~name:"Netlist.of_string and net_of_string total" (fun s ->
      total "Netlist.of_string" F.Netlist.of_string s
      && List.for_all (total "Netlist.net_of_string" F.Netlist.net_of_string) (String.split_on_char '\n' s))

let () =
  Alcotest.run "fr_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "caps nesting depth" `Quick test_json_depth_cap;
          Alcotest.test_case "no non-finite numbers" `Quick test_json_non_finite;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "route request" `Quick test_protocol_parse_route;
          Alcotest.test_case "route defaults" `Quick test_protocol_parse_route_defaults;
          Alcotest.test_case "eco deltas" `Quick test_protocol_parse_eco;
          Alcotest.test_case "other requests & rejects" `Quick test_protocol_parse_rest;
          Alcotest.test_case "digest invariance" `Quick test_routing_digest_invariance;
        ] );
      ( "eco",
        [
          Alcotest.test_case "differential deltas" `Quick test_eco_differential_deltas;
          Alcotest.test_case "term1 script, domains 1/2/4" `Slow test_eco_term1_script;
          Alcotest.test_case "term1 IDOM rotations re-solve, domains 1/2" `Slow
            test_eco_term1_idom_rotations;
          Alcotest.test_case "pin slot the RRG lacks rejected" `Quick
            test_eco_rejects_missing_pin_slot;
          Alcotest.test_case "invalid deltas rejected" `Quick test_eco_invalid_deltas_leave_session;
          Alcotest.test_case "failed apply restores" `Quick test_eco_failed_apply_restores_session;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "survives a client that hangs up" `Quick test_server_survives_hangup;
          Alcotest.test_case "rejects an over-long request line" `Quick
            test_server_rejects_oversized_line;
          Alcotest.test_case "answers a deeply nested line and keeps serving" `Quick
            test_server_rejects_deep_nesting;
          Alcotest.test_case "forgets finished connections" `Quick
            test_server_forgets_finished_connections;
          Alcotest.test_case "shutdown does not wait for an idle peer" `Quick
            test_server_shutdown_skips_idle_peer;
          Alcotest.test_case "concurrent ECO clients reach a fixpoint" `Quick
            test_server_concurrent_eco_clients;
        ] );
      ("fuzz", [ prop_fuzz_json; prop_fuzz_protocol; prop_fuzz_netlist ]);
    ]
