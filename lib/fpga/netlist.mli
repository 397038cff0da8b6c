(** Circuits and nets at the architecture level.

    A net's pins are logic-block pin references (block position, side,
    slot); the router maps them onto routing-resource-graph nodes.  Pin
    references are exclusive — two nets may not share a pin — mirroring the
    electrical reality the benchmark generator enforces. *)

type pin_ref = {
  row : int;
  col : int;
  side : Rrg.side;
  slot : int;
}

type net = {
  net_name : string;
  source : pin_ref;
  sinks : pin_ref list;  (** non-empty, distinct, source excluded *)
}

type circuit = {
  circuit_name : string;
  rows : int;
  cols : int;
  nets : net list;
}

val same_net : net -> net -> bool
(** Same name, same source, same sink list.  Order-sensitive: pin order
    determines the router's source/sink mapping, so a permutation is a
    different net. *)

val make_net : name:string -> source:pin_ref -> sinks:pin_ref list -> net
(** @raise Invalid_argument on an empty sink list or duplicate pins. *)

val net_pins : net -> pin_ref list
(** Source first. *)

val pin_count : net -> int

val validate : circuit -> (unit, string) result
(** Checks that all pins are within the array and that no pin reference is
    shared between nets. *)

val pin_histogram : circuit -> int * int * int
(** Nets with 2–3 pins, 4–10 pins, and more than 10 pins — the breakdown
    reported in the paper's Tables 2 and 3. *)

val rrg_net : Rrg.t -> net -> Fr_core.Net.t
(** The net as routing-graph terminals.
    @raise Invalid_argument when the circuit does not fit the RRG's
    architecture. *)

val bounding_box : net -> int * int * int * int
(** [(min_col, min_row, max_col, max_row)] over the net's pins. *)

val to_string : circuit -> string
(** Textual netlist format:
    {v
    circuit <name> <rows> <cols>
    net <name> <row>,<col>,<N|E|S|W>,<slot> <row>,<col>,<side>,<slot> ...
    v}
    First pin is the source. *)

val of_string : string -> (circuit, string) result
(** Parser for {!to_string}'s format (round-trips). *)

val pin_to_string : pin_ref -> string
(** [<row>,<col>,<N|E|S|W>,<slot>] — one pin of {!to_string}'s format. *)

val pin_of_string : string -> pin_ref option

val net_of_string : string -> (net, string) result
(** Parser for a single [net <name> <pin> <pin> ...] line of {!to_string}'s
    format — the wire format the serve protocol uses for netlist deltas. *)
