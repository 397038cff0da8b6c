type pin_ref = {
  row : int;
  col : int;
  side : Rrg.side;
  slot : int;
}

type net = {
  net_name : string;
  source : pin_ref;
  sinks : pin_ref list;
}

type circuit = {
  circuit_name : string;
  rows : int;
  cols : int;
  nets : net list;
}

(* Typed total order on pin references (row, col, side, slot), so pin
   dedup never falls back to polymorphic compare. *)
let compare_pin a b =
  let c = Int.compare a.row b.row in
  if c <> 0 then c
  else
    let c = Int.compare a.col b.col in
    if c <> 0 then c
    else
      let c = Int.compare (Rrg.side_index a.side) (Rrg.side_index b.side) in
      if c <> 0 then c else Int.compare a.slot b.slot

let equal_pin a b = compare_pin a b = 0

(* Order-sensitive: the first pin is the source and the sink order feeds
   the construction, so a pin permutation is a different net for routing
   purposes. *)
let same_net a b =
  String.equal a.net_name b.net_name
  && equal_pin a.source b.source
  && Int.equal (List.length a.sinks) (List.length b.sinks)
  && List.for_all2 equal_pin a.sinks b.sinks

let make_net ~name ~source ~sinks =
  if sinks = [] then invalid_arg "Netlist.make_net: no sinks";
  let all = source :: sinks in
  let n_all = List.length all in
  let n_distinct = List.length (List.sort_uniq compare_pin all) in
  if n_distinct <> n_all then invalid_arg "Netlist.make_net: duplicate pins";
  { net_name = name; source; sinks }

let net_pins n = n.source :: n.sinks

let pin_count n = 1 + List.length n.sinks

let validate c =
  let pin_ok p = p.row >= 0 && p.row < c.rows && p.col >= 0 && p.col < c.cols && p.slot >= 0 in
  let seen = Hashtbl.create 1024 in
  let rec check_nets = function
    | [] -> Ok ()
    | n :: rest ->
        let rec check_pins = function
          | [] -> check_nets rest
          | p :: ps ->
              if not (pin_ok p) then
                Error (Printf.sprintf "net %s: pin out of array bounds" n.net_name)
              else if Hashtbl.mem seen p then
                Error (Printf.sprintf "net %s: pin shared with another net" n.net_name)
              else begin
                Hashtbl.add seen p ();
                check_pins ps
              end
        in
        check_pins (net_pins n)
  in
  check_nets c.nets

let pin_histogram c =
  List.fold_left
    (fun (small, med, big) n ->
      let k = pin_count n in
      if k <= 3 then (small + 1, med, big)
      else if k <= 10 then (small, med + 1, big)
      else (small, med, big + 1))
    (0, 0, 0) c.nets

let rrg_pin rrg p = Rrg.pin rrg ~row:p.row ~col:p.col ~side:p.side ~slot:p.slot

let rrg_net rrg n =
  Fr_core.Net.make ~source:(rrg_pin rrg n.source) ~sinks:(List.map (rrg_pin rrg) n.sinks)

let bounding_box n =
  List.fold_left
    (fun (x0, y0, x1, y1) p -> (min x0 p.col, min y0 p.row, max x1 p.col, max y1 p.row))
    (max_int, max_int, min_int, min_int)
    (net_pins n)

let side_letter = function Rrg.North -> "N" | Rrg.East -> "E" | Rrg.South -> "S" | Rrg.West -> "W"

let side_of_letter = function
  | "N" -> Some Rrg.North
  | "E" -> Some Rrg.East
  | "S" -> Some Rrg.South
  | "W" -> Some Rrg.West
  | _ -> None

let pin_to_string p = Printf.sprintf "%d,%d,%s,%d" p.row p.col (side_letter p.side) p.slot

let to_string c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "circuit %s %d %d\n" c.circuit_name c.rows c.cols);
  List.iter
    (fun n ->
      Buffer.add_string buf (Printf.sprintf "net %s" n.net_name);
      List.iter
        (fun p ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (pin_to_string p))
        (net_pins n);
      Buffer.add_char buf '\n')
    c.nets;
  Buffer.contents buf

let pin_of_string s =
  match String.split_on_char ',' s with
  | [ r; c; side; slot ] -> (
      match (int_of_string_opt r, int_of_string_opt c, side_of_letter side, int_of_string_opt slot)
      with
      | Some row, Some col, Some side, Some slot -> Some { row; col; side; slot }
      | _ -> None)
  | _ -> None

let parse_words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

let net_of_string line =
  match parse_words line with
  | "net" :: net_name :: (_ :: _ :: _ as pins) -> (
      let parsed = List.map pin_of_string pins in
      if List.exists (fun p -> p = None) parsed then
        Error (Printf.sprintf "net %s: malformed pin" net_name)
      else
        match List.filter_map (fun p -> p) parsed with
        | source :: sinks -> (
            match make_net ~name:net_name ~source ~sinks with
            | n -> Ok n
            | exception Invalid_argument msg -> Error msg)
        | [] -> Error "impossible: empty pin list")
  | _ -> Error (Printf.sprintf "malformed net line: %s" line)

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty netlist"
  | header :: rest -> (
      match parse_words header with
      | [ "circuit"; name; rows; cols ] -> (
          match (int_of_string_opt rows, int_of_string_opt cols) with
          | Some rows, Some cols ->
              let rec parse_nets acc = function
                | [] -> Ok { circuit_name = name; rows; cols; nets = List.rev acc }
                | line :: more -> (
                    match net_of_string line with
                    | Ok n -> parse_nets (n :: acc) more
                    | Error e -> Error e)
              in
              parse_nets [] rest
          | _ -> Error "malformed circuit header"
        )
      | _ -> Error "missing circuit header")
