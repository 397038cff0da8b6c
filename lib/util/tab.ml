type row =
  | Cells of string list
  | Rule

type t = {
  title : string;
  header : string list;
  mutable rows : row list; (* stored reversed *)
  mutable notes : string list; (* stored reversed *)
}

let create ~title ~header = { title; header; rows = []; notes = [] }

let add_row t cells = t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Rule :: t.rows

let add_note t s = t.notes <- s :: t.notes

let cell_of_row ncols = function
  | Cells cs ->
      let len = List.length cs in
      if len >= ncols then cs else cs @ List.init (ncols - len) (fun _ -> "")
  | Rule -> []

let to_string t =
  let rows = List.rev t.rows in
  let ncols = List.length t.header in
  let all_cell_rows =
    t.header :: List.filter_map (fun r -> match r with Cells _ -> Some (cell_of_row ncols r) | Rule -> None) rows
  in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter measure all_cell_rows;
  let total_width = Array.fold_left ( + ) 0 widths + (3 * (ncols - 1)) in
  let buf = Buffer.create 1024 in
  let pad i c =
    let w = widths.(i) in
    let s = if i = 0 then c ^ String.make (w - String.length c) ' ' else String.make (w - String.length c) ' ' ^ c in
    s
  in
  let emit_cells cells =
    let padded = List.mapi pad cells in
    Buffer.add_string buf (String.concat " | " padded);
    Buffer.add_char buf '\n'
  in
  let rule () =
    Buffer.add_string buf (String.make total_width '-');
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  rule ();
  emit_cells (cell_of_row ncols (Cells t.header));
  rule ();
  List.iter
    (fun r -> match r with Cells _ -> emit_cells (cell_of_row ncols r) | Rule -> rule ())
    rows;
  rule ();
  List.iter
    (fun n ->
      Buffer.add_string buf n;
      Buffer.add_char buf '\n')
    (List.rev t.notes);
  Buffer.contents buf

let print t = print_string (to_string t ^ "\n")

let fmt_signed x = Printf.sprintf "%+.2f" x
