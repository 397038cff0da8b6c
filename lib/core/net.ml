type t = {
  source : int;
  sinks : int list;
}

let make ~source ~sinks =
  if source < 0 || List.exists (fun s -> s < 0) sinks then
    invalid_arg "Net.make: negative node id";
  let sinks = List.sort_uniq Int.compare (List.filter (fun s -> s <> source) sinks) in
  { source; sinks }

let of_terminals = function
  | [] -> invalid_arg "Net.of_terminals: empty net"
  | source :: sinks -> make ~source ~sinks

let terminals n = n.source :: n.sinks
