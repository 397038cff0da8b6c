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
      {|{"cmd":"route","circuit":"x","width":6,"mode":"negotiated","domains":2,"max_passes":5}|}
  with
  | Ok (S.Protocol.Route r) ->
      Alcotest.(check string) "circuit" "x" r.S.Protocol.circuit_text;
      Alcotest.(check int) "width" 6 r.S.Protocol.width;
      Alcotest.(check int) "domains" 2 r.S.Protocol.domains;
      Alcotest.(check bool) "mode" true (r.S.Protocol.mode = F.Router.Negotiated);
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
            (F.Netlist.equal_pin src (pin 1 4 F.Rrg.South 0));
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
  bad {|{"cmd":"eco"}|};
  bad {|{"cmd":"eco","deltas":[{"op":"warp"}]}|};
  bad {|{"cmd":"eco","deltas":[{"op":"retime","name":"b","source":"bogus","sinks":[]}]}|};
  bad {|{"cmd":"checkpoint","restore":"one"}|};
  Alcotest.(check bool) "mode names roundtrip" true
    (S.Protocol.mode_of_name (S.Protocol.mode_name F.Router.Negotiated)
    = Some F.Router.Negotiated)

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

let test_eco_differential_deltas () =
  List.iter
    (fun mode ->
      let name s = S.Protocol.mode_name mode ^ "/" ^ s in
      let config = F.Router.config_with ~mode () in
      let circuit = tiny_circuit () in
      let eco, es0 = eco_create ~config circuit ~w:6 in
      Alcotest.(check string) (name "create = scratch") (scratch_digest ~config circuit ~w:6)
        (S.Protocol.routing_digest es0.F.Router.Eco.stats.F.Router.routed);
      let check_step step deltas =
        match F.Router.Eco.apply eco deltas with
        | Error _ -> Alcotest.failf "%s: eco apply failed" (name step)
        | Ok es ->
            let edited = F.Router.Eco.circuit eco in
            Alcotest.(check string)
              (name step ^ " = scratch")
              (scratch_digest ~config edited ~w:6) (eco_digest eco);
            Alcotest.(check int)
              (name step ^ " rip accounting")
              es.F.Router.Eco.nets_total
              (es.F.Router.Eco.nets_ripped + es.F.Router.Eco.nets_reused)
      in
      check_step "remove" [ F.Router.Eco.Remove_net "c" ];
      check_step "add"
        [
          F.Router.Eco.Add_net
            (F.Netlist.make_net ~name:"d" ~source:(pin 2 0 F.Rrg.South 0)
               ~sinks:[ pin 2 1 F.Rrg.South 0 ]);
        ];
      check_step "retime"
        [ F.Router.Eco.Retime_net ("b", pin 1 4 F.Rrg.South 0, [ pin 1 1 F.Rrg.South 0 ]) ];
      check_step "mixed"
        [
          F.Router.Eco.Remove_net "d";
          F.Router.Eco.Retime_net ("b", pin 1 1 F.Rrg.South 0, [ pin 1 4 F.Rrg.South 0 ]);
        ];
      F.Router.Eco.close eco)
    [ F.Router.Waves; F.Router.Negotiated ]

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

let test_eco_failed_apply_restores_session () =
  (* A 1-track session holding just net b; growing it to the full tiny
     circuit is infeasible at W=1, so the apply must fail and roll the
     session back to a usable single-net state. *)
  let circuit = { (tiny_circuit ()) with F.Netlist.nets = [ List.nth (tiny_circuit ()).F.Netlist.nets 1 ] } in
  let eco, _ = eco_create circuit ~w:1 in
  let before = eco_digest eco in
  let tiny = tiny_circuit () in
  let a = List.nth tiny.F.Netlist.nets 0 and c = List.nth tiny.F.Netlist.nets 2 in
  (match F.Router.Eco.apply eco [ F.Router.Eco.Add_net a; F.Router.Eco.Add_net c ] with
  | Ok _ -> Alcotest.fail "tiny circuit should not route at W=1"
  | Error f -> Alcotest.(check bool) "failure names nets" true (f.F.Router.failed_nets <> []));
  Alcotest.(check int) "netlist restored" 1 (List.length (F.Router.Eco.circuit eco).F.Netlist.nets);
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
    (scratch_digest (F.Router.Eco.circuit eco) ~w:1)
    (eco_digest eco);
  F.Router.Eco.close eco

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

(* A long-lived daemon must not grow with every connection it has served:
   each connection's thread leaves the live set when it ends. *)
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
  (* Each thread drops itself once it reads its peer's EOF; poll. *)
  let rec settle tries =
    let live = S.Server.live_connections server in
    if live = 0 || tries = 0 then live
    else begin
      Thread.delay 0.01;
      settle (tries - 1)
    end
  in
  Alcotest.(check int) "no finished connection stays live" 0 (settle 1000);
  let client = S.Client.connect ~socket:path in
  let last = stats client in
  (* A request counts after it is answered: the 50 before this one. *)
  Alcotest.(check int) "a final stats still answers" 50 (field_int "requests" last);
  Alcotest.(check int) "only the open connection is live" 1 (S.Server.live_connections server);
  ignore (request client "shutdown");
  S.Client.close client;
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let () =
  Alcotest.run "fr_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
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
          Alcotest.test_case "invalid deltas rejected" `Quick test_eco_invalid_deltas_leave_session;
          Alcotest.test_case "failed apply restores" `Quick test_eco_failed_apply_restores_session;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "survives a client that hangs up" `Quick test_server_survives_hangup;
          Alcotest.test_case "forgets finished connections" `Quick
            test_server_forgets_finished_connections;
        ] );
    ]
