(* Wire protocol of the routing daemon: newline-delimited JSON requests
   and responses (see protocol.mli for the grammar).  This module is the
   pure half — request parsing and response rendering — so the daemon,
   the bench client, and the tests all speak from one vocabulary. *)

module F = Fr_fpga

type route_req = {
  circuit_text : string;
  width : int;
  mode : F.Router.mode;
  domains : int;
  max_passes : int option;
}

type checkpoint_req =
  | Save
  | Restore of int

type request =
  | Route of route_req
  | Eco of F.Router.Eco.delta list
  | Stats
  | Checkpoint of checkpoint_req
  | Shutdown

let mode_name = function F.Router.Waves -> "waves" | F.Router.Negotiated -> "negotiated"

let mode_of_name = function
  | "waves" -> Some F.Router.Waves
  | "negotiated" -> Some F.Router.Negotiated
  | _ -> None

(* ---------------- request parsing ---------------- *)

let field_str j key = Option.bind (Json.member key j) Json.str

let field_int j key = Option.bind (Json.member key j) Json.int

let parse_pin s =
  match F.Netlist.pin_of_string s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "malformed pin %S" s)

let parse_delta j =
  match field_str j "op" with
  | Some "add" -> (
      match field_str j "net" with
      | None -> Error "add delta: missing \"net\""
      | Some line -> (
          match F.Netlist.net_of_string line with
          | Ok n -> Ok (F.Router.Eco.Add_net n)
          | Error e -> Error (Printf.sprintf "add delta: %s" e)))
  | Some "remove" -> (
      match field_str j "name" with
      | Some name -> Ok (F.Router.Eco.Remove_net name)
      | None -> Error "remove delta: missing \"name\"")
  | Some "retime" -> (
      match (field_str j "name", field_str j "source", Option.bind (Json.member "sinks" j) Json.arr)
      with
      | Some name, Some src, Some sink_js -> (
          let rec pins acc = function
            | [] -> Ok (List.rev acc)
            | s :: rest -> (
                match Option.bind (Json.str s) (fun x -> Result.to_option (parse_pin x)) with
                | Some p -> pins (p :: acc) rest
                | None -> Error "retime delta: malformed sink pin")
          in
          match (parse_pin src, pins [] sink_js) with
          | Ok source, Ok sinks -> Ok (F.Router.Eco.Retime_net (name, source, sinks))
          | Error e, _ -> Error (Printf.sprintf "retime delta: %s" e)
          | _, Error e -> Error e)
      | _ -> Error "retime delta: needs \"name\", \"source\" and \"sinks\"")
  | Some op -> Error (Printf.sprintf "unknown delta op %S" op)
  | None -> Error "delta: missing \"op\""

let parse_request j =
  match field_str j "cmd" with
  | Some "route" -> (
      match (field_str j "circuit", field_int j "width") with
      | Some circuit_text, Some width -> (
          let mode_s = Option.value ~default:"waves" (field_str j "mode") in
          let domains = Option.value ~default:1 (field_int j "domains") in
          let max_passes = field_int j "max_passes" in
          match (mode_of_name mode_s, max_passes) with
          | None, _ -> Error (Printf.sprintf "unknown mode %S" mode_s)
          | Some _, _ when domains < 1 || domains > Fr_util.Pool.max_domains ->
              Error
                (Printf.sprintf "route: \"domains\" must be in [1, %d], got %d"
                   Fr_util.Pool.max_domains domains)
          | Some _, Some p when p < 1 ->
              Error (Printf.sprintf "route: \"max_passes\" must be at least 1, got %d" p)
          | Some F.Router.Negotiated, Some _ ->
              Error "route: \"max_passes\" caps waves passes; negotiated mode takes none"
          | Some mode, _ -> Ok (Route { circuit_text; width; mode; domains; max_passes }))
      | _ -> Error "route: needs \"circuit\" and \"width\"")
  | Some "eco" -> (
      match Option.bind (Json.member "deltas" j) Json.arr with
      | None -> Error "eco: missing \"deltas\" array"
      | Some items ->
          let rec go acc = function
            | [] -> Ok (Eco (List.rev acc))
            | d :: rest -> (
                match parse_delta d with Ok delta -> go (delta :: acc) rest | Error e -> Error e)
          in
          go [] items)
  | Some "stats" -> Ok Stats
  | Some "checkpoint" -> (
      match Json.member "restore" j with
      | None -> Ok (Checkpoint Save)
      | Some v -> (
          match Json.int v with
          | Some id -> Ok (Checkpoint (Restore id))
          | None -> Error "checkpoint: \"restore\" must be an integer id"))
  | Some "shutdown" -> Ok Shutdown
  | Some cmd -> Error (Printf.sprintf "unknown cmd %S" cmd)
  | None -> Error "missing \"cmd\""

(* ---------------- responses ---------------- *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let stats_json (s : F.Router.stats) =
  Json.Obj
    [
      ("passes", Json.of_int s.F.Router.passes);
      ("nets", Json.of_int (List.length s.F.Router.routed));
      ("wirelength", Json.Num s.F.Router.total_wirelength);
      ("max_path", Json.Num s.F.Router.total_max_path);
      ("peak_occupancy", Json.of_int s.F.Router.peak_occupancy);
      ("dijkstra_runs", Json.of_int s.F.Router.dijkstra_runs);
      ("settled_nodes", Json.of_int s.F.Router.settled_nodes);
      ("mutations", Json.of_int s.F.Router.mutations);
      ("rollbacks", Json.of_int s.F.Router.rollbacks);
      ("journal_depth", Json.of_int s.F.Router.journal_depth);
      ("domains", Json.of_int s.F.Router.domains);
      ("par_batches", Json.of_int s.F.Router.par_batches);
      ("par_conflicts", Json.of_int s.F.Router.par_conflicts);
      ("future_cost_evals", Json.of_int s.F.Router.future_cost_evals);
    ]

(* Canonical fingerprint of a routing: net names with sorted edge-id lists,
   sorted by name, digested.  Two routings share a digest iff they are the
   same set of trees — the equality the ECO differential contract promises,
   checkable by a client that never sees the trees themselves. *)
let routing_digest routed =
  let canon =
    List.map
      (fun (r : F.Router.routed_net) ->
        let edges = List.sort Int.compare r.F.Router.tree.Fr_graph.Tree.edges in
        r.F.Router.net.F.Netlist.net_name ^ ":"
        ^ String.concat "," (List.map string_of_int edges))
      routed
    |> List.sort String.compare
  in
  Digest.to_hex (Digest.string (String.concat ";" canon))

let routed_response (es : F.Router.Eco.eco_stats) =
  ok
    [
      ("status", Json.Str "routed");
      ("stats", stats_json es.F.Router.Eco.stats);
      ("nets_total", Json.of_int es.F.Router.Eco.nets_total);
      ("nets_ripped", Json.of_int es.F.Router.Eco.nets_ripped);
      ("nets_reused", Json.of_int es.F.Router.Eco.nets_reused);
      ("digest", Json.Str (routing_digest es.F.Router.Eco.stats.F.Router.routed));
    ]

let unroutable_response (f : F.Router.failure) =
  ok
    [
      ("status", Json.Str "unroutable");
      ("failed_nets", Json.Arr (List.map (fun n -> Json.Str n) f.F.Router.failed_nets));
      ("passes_tried", Json.of_int f.F.Router.passes_tried);
    ]
