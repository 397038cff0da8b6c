(** Wire protocol of the routing daemon — the pure half.

    One request per line, one JSON object per request; one response line
    per request, always an object with an ["ok"] boolean.  Grammar:

    {v
    {"cmd":"route","circuit":<netlist text>,"width":W,
     "mode":"waves"|"negotiated","domains":D,"max_passes":N}
        open (or replace) the routing session
    {"cmd":"eco","deltas":[
        {"op":"add","net":"net <name> <pin> <pin> ..."},
        {"op":"remove","name":<net>},
        {"op":"retime","name":<net>,"source":<pin>,"sinks":[<pin>,...]}]}
        incremental re-route of the edited netlist
    {"cmd":"stats"}                 session and last-request statistics
    {"cmd":"checkpoint"}            snapshot the netlist, returns an id
    {"cmd":"checkpoint","restore":I} ECO back to snapshot I's netlist
    {"cmd":"shutdown"}              stop the daemon
    v}

    Pins use the netlist text format, [<row>,<col>,<N|E|S|W>,<slot>].
    [route] and [eco] answer [{"ok":true,"status":"routed",...}] with
    per-request stats, ECO rip-up accounting and a canonical routing
    digest, or [{"ok":true,"status":"unroutable",...}] when the edited
    netlist does not route at the session width (the session keeps its
    pre-request routing).  Malformed or out-of-session requests answer
    [{"ok":false,"error":...}]. *)

type route_req = {
  circuit_text : string;  (** {!Fr_fpga.Netlist.of_string} format *)
  width : int;
  mode : Fr_fpga.Router.mode;
  domains : int;
      (** default 1; a value not between 1 and {!Fr_util.Pool.max_domains}
          is a parse error *)
  max_passes : int option;
      (** the waves pass cap, default the router's 20; a value below 1 is a
          parse error, and so is any value beside ["mode":"negotiated"],
          which stops on its own iteration limits
          ({!Fr_fpga.Router.config}) *)
}

type checkpoint_req =
  | Save
  | Restore of int

type request =
  | Route of route_req
  | Eco of Fr_fpga.Router.Eco.delta list
  | Stats
  | Checkpoint of checkpoint_req
  | Shutdown

val mode_name : Fr_fpga.Router.mode -> string

val parse_request : Json.t -> (request, string) result

val ok : (string * Json.t) list -> Json.t
(** An [{"ok":true}] object with the given extra fields. *)

val error : string -> Json.t

val stats_json : Fr_fpga.Router.stats -> Json.t

val routing_digest : Fr_fpga.Router.routed_net list -> string
(** Order-independent fingerprint of a routing: net names with sorted
    edge-id lists, sorted by name, MD5-digested.  Equal digests iff equal
    tree sets — how a socket client checks the ECO differential contract
    without shipping trees over the wire. *)

val routed_response : Fr_fpga.Router.Eco.eco_stats -> Json.t

val unroutable_response : Fr_fpga.Router.failure -> Json.t
