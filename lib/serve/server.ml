(* The routing daemon: a Unix-domain-socket front end over a long-lived
   Router.Eco session.

   Concurrency model: one listener thread ([serve_forever]) accepts
   connections and hands each to its own thread; every request dispatches
   under one global mutex, so the Eco session — and the domain pool it
   owns — is only ever driven from one thread at a time (Pool is not
   thread-safe).  CPU parallelism comes from inside the router (the
   session's worker domains), not from overlapping requests; concurrent
   clients interleave at request granularity and each still sees
   serializable sessions.  Responses carry per-request stats, so an
   interleaved client reads its own request's work, not a shared total. *)

module F = Fr_fpga

type session = {
  eco : F.Router.Eco.t;
  width : int;
  mode : F.Router.mode;
  domains : int;
  mutable checkpoints : (int * F.Netlist.circuit) list;  (* newest first *)
  mutable next_checkpoint : int;
}

type t = {
  sock : Unix.file_descr;
  path : string;
  lock : Mutex.t;
  mutable session : session option;
  mutable requests : int;
  stopping : bool Atomic.t;
      (* set once, under [lock], by the shutdown request; the accept loop
         reads it without the lock, so it never waits for a route *)
  mutable unreplied : int;
      (* dispatched requests whose reply is not yet written, under [lock]:
         the exit waits for these, and for no connection *)
  reply_sent : Condition.t;  (* signalled under [lock] as [unreplied] falls *)
}

let create ~socket =
  (* A client that hangs up before reading its reply must cost only its
     own connection.  Left at its default action, the SIGPIPE raised by
     the write to its socket would kill the whole daemon; ignored, the
     write fails with EPIPE, which [handle_conn] absorbs. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists socket then Sys.remove socket;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket);
  Unix.listen sock 16;
  {
    sock;
    path = socket;
    lock = Mutex.create ();
    session = None;
    requests = 0;
    stopping = Atomic.make false;
    unreplied = 0;
    reply_sent = Condition.create ();
  }

let close_session t =
  match t.session with
  | None -> ()
  | Some s ->
      F.Router.Eco.close s.eco;
      t.session <- None

(* ---------------- request handlers (called under t.lock) ---------------- *)

let handle_route t (r : Protocol.route_req) =
  match F.Netlist.of_string r.Protocol.circuit_text with
  | Error e -> Protocol.error (Printf.sprintf "bad circuit: %s" e)
  | Ok circuit -> (
      let config =
        F.Router.config_with ~mode:r.Protocol.mode ?max_passes:r.Protocol.max_passes ()
      in
      (* A circuit that does not fit — an empty array, a non-positive
         width, pins the RRG lacks — is rejected with Invalid_argument by
         the architecture, the RRG build or the session's argument check,
         all before any session state changes. *)
      match
        let arch =
          F.Arch.xc4000 ~rows:circuit.F.Netlist.rows ~cols:circuit.F.Netlist.cols
            ~channel_width:r.Protocol.width
        in
        F.Router.Eco.create ~config ~domains:r.Protocol.domains (F.Rrg.build arch) circuit
      with
      | Ok (eco, es) ->
          close_session t;
          t.session <-
            Some
              {
                eco;
                width = r.Protocol.width;
                mode = r.Protocol.mode;
                domains = r.Protocol.domains;
                checkpoints = [];
                next_checkpoint = 1;
              };
          Protocol.routed_response es
      | Error f ->
          (* No session opened; a previous session, if any, is kept. *)
          Protocol.unroutable_response f
      | exception Invalid_argument msg -> Protocol.error msg)

let handle_eco s deltas =
  match F.Router.Eco.apply s.eco deltas with
  | Ok es -> Protocol.routed_response es
  | Error f -> Protocol.unroutable_response f
  | exception Invalid_argument msg -> Protocol.error msg

let handle_stats t =
  match t.session with
  | None -> Protocol.ok [ ("session", Json.Bool false); ("requests", Json.of_int t.requests) ]
  | Some s ->
      let circuit = F.Router.Eco.circuit s.eco in
      let last =
        match F.Router.Eco.last_stats s.eco with
        | Some st -> Protocol.stats_json st
        | None -> Json.Null
      in
      Protocol.ok
        [
          ("session", Json.Bool true);
          ("requests", Json.of_int t.requests);
          ("circuit", Json.Str circuit.F.Netlist.circuit_name);
          ("nets", Json.of_int (List.length circuit.F.Netlist.nets));
          ("width", Json.of_int s.width);
          ("mode", Json.Str (Protocol.mode_name s.mode));
          ("domains", Json.of_int s.domains);
          ("checkpoints", Json.of_int (List.length s.checkpoints));
          ("digest", Json.Str (Protocol.routing_digest (F.Router.Eco.routed s.eco)));
          ("last", last);
        ]

(* The deltas that edit [cur] into [goal], by net name: removals first
   (freeing their pins), then terminal changes, then additions.  Eco
   validates the final netlist as a whole, so intermediate pin sharing
   between a freed and a claimed pin is fine in any order. *)
let diff_deltas (cur : F.Netlist.circuit) (goal : F.Netlist.circuit) =
  let by_name nets =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (n : F.Netlist.net) -> Hashtbl.replace tbl n.F.Netlist.net_name n) nets;
    tbl
  in
  let cur_tbl = by_name cur.F.Netlist.nets and goal_tbl = by_name goal.F.Netlist.nets in
  let removes =
    List.filter_map
      (fun (n : F.Netlist.net) ->
        if Hashtbl.mem goal_tbl n.F.Netlist.net_name then None
        else Some (F.Router.Eco.Remove_net n.F.Netlist.net_name))
      cur.F.Netlist.nets
  in
  let retimes =
    List.filter_map
      (fun (n : F.Netlist.net) ->
        match Hashtbl.find_opt cur_tbl n.F.Netlist.net_name with
        | Some old when not (F.Netlist.same_net old n) ->
            Some (F.Router.Eco.Retime_net (n.F.Netlist.net_name, n.F.Netlist.source, n.F.Netlist.sinks))
        | _ -> None)
      goal.F.Netlist.nets
  in
  let adds =
    List.filter_map
      (fun (n : F.Netlist.net) ->
        if Hashtbl.mem cur_tbl n.F.Netlist.net_name then None else Some (F.Router.Eco.Add_net n))
      goal.F.Netlist.nets
  in
  removes @ retimes @ adds

let handle_checkpoint s (c : Protocol.checkpoint_req) =
  match c with
  | Protocol.Save ->
      let id = s.next_checkpoint in
      s.next_checkpoint <- id + 1;
      s.checkpoints <- (id, F.Router.Eco.circuit s.eco) :: s.checkpoints;
      Protocol.ok [ ("id", Json.of_int id) ]
  | Protocol.Restore id -> (
      match List.assoc_opt id s.checkpoints with
      | None -> Protocol.error (Printf.sprintf "no checkpoint %d" id)
      | Some goal -> handle_eco s (diff_deltas (F.Router.Eco.circuit s.eco) goal))

(* Serve [req] under the session lock; [true] beside the reply once the
   daemon is stopping.  A request dispatched after the shutdown starts
   nothing: the exit path may already have closed the session it would
   use.  Each dispatched request owes a reply, which the exit waits for
   until [replied] is called. *)
let dispatch t req =
  Mutex.protect t.lock @@ fun () ->
  t.unreplied <- t.unreplied + 1;
  let resp =
    match
      match req with
      | _ when Atomic.get t.stopping -> Protocol.error "the daemon is shutting down"
      | Protocol.Route r -> handle_route t r
      | Protocol.Eco deltas -> (
          match t.session with
          | None -> Protocol.error "no session: send a \"route\" request first"
          | Some s -> handle_eco s deltas)
      | Protocol.Stats -> handle_stats t
      | Protocol.Checkpoint c -> (
          match t.session with
          | None -> Protocol.error "no session: send a \"route\" request first"
          | Some s -> handle_checkpoint s c)
      | Protocol.Shutdown ->
          Atomic.set t.stopping true;
          Protocol.ok [ ("status", Json.Str "bye") ]
    with
    | resp -> resp
    | exception e -> Protocol.error (Printf.sprintf "internal error: %s" (Printexc.to_string e))
  in
  t.requests <- t.requests + 1;
  (resp, Atomic.get t.stopping)

(* The reply to a dispatched request is written, or its peer is gone. *)
let replied t =
  Mutex.protect t.lock (fun () ->
      t.unreplied <- t.unreplied - 1;
      Condition.broadcast t.reply_sent)

(* Wake the listener out of [Unix.accept] by connecting to ourselves; the
   accept loop re-checks [stopping] after every accept. *)
let poke t =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX t.path) with
      | () -> Unix.close fd
      | exception Unix.Unix_error _ -> Unix.close fd)
  | exception Unix.Unix_error _ -> ()

(* The longest request line the daemon reads, newline excluded: 1 MiB. *)
let max_line = 1 lsl 20

(* Read one request line without its newline, buffering at most
   [max_line] bytes: [`Too_long] as soon as byte [max_line + 1] is not the
   newline.  A final line without a newline still counts; a read error is
   the end of input. *)
let read_line ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents buf)
    | c when Buffer.length buf < max_line ->
        Buffer.add_char buf c;
        go ()
    | _ -> `Too_long
    | exception (End_of_file | Sys_error _) ->
        if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
  in
  go ()

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* [false] when the peer is gone (EPIPE, reset): the request was still
     served, only its reply is lost, and the connection ends. *)
  let reply resp =
    match
      output_string oc (Json.to_string resp);
      output_char oc '\n';
      flush oc
    with
    | () -> true
    | exception Sys_error _ -> false
  in
  let rec loop () =
    match read_line ic with
    | `Eof -> ()
    | `Too_long ->
        (* Answer, then end the connection rather than read the rest: the
           peer cannot make the daemon buffer more than the cap. *)
        ignore
          (reply (Protocol.error (Printf.sprintf "request line longer than %d bytes" max_line)))
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> (
        let parsed =
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
          | Ok j -> Protocol.parse_request j
        in
        match parsed with
        | Error e -> if reply (Protocol.error e) then loop ()
        | Ok req ->
            let resp, stop_now = dispatch t req in
            let delivered = Fun.protect ~finally:(fun () -> replied t) (fun () -> reply resp) in
            if stop_now then poke t else if delivered then loop ())
  in
  (* Closing through the channel closes the fd exactly once on every exit
     path, and marks the channel closed, so reply bytes a dead peer left
     unflushed can never reach a later connection that reuses the fd. *)
  Fun.protect ~finally:(fun () -> close_out_noerr oc) loop

(* Each connection is served on its own thread, which nothing joins: at
   shutdown, the exit waits only for the replies that dispatched requests
   owe, so a peer that sends nothing cannot hold it, and the process exit
   ends the threads still blocked reading. *)
let serve_forever t =
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.sock with
      | fd, _ ->
          ignore (Thread.create (handle_conn t) fd);
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  Mutex.protect t.lock (fun () ->
      while t.unreplied > 0 do
        Condition.wait t.reply_sent t.lock
      done;
      close_session t);
  Unix.close t.sock;
  if Sys.file_exists t.path then Sys.remove t.path
