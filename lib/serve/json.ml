(* Minimal JSON: just enough for the newline-delimited serve protocol.
   Hand-rolled because the toolchain ships no JSON package; the subset is
   complete (all six value kinds, string escapes including \uXXXX with
   surrogate pairs) so any standard client can speak to the daemon. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- emitting ---------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no infinities or NaN: a non-finite number renders as null,
   so every rendered line parses again. *)
let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add_value buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_escaped buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_value buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add_value buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_value buf v;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

exception Bad of string

type cursor = {
  text : string;
  mutable pos : int;
}

let fail cur msg = raise (Bad (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some d when Char.equal d c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.text && String.equal (String.sub cur.text cur.pos n) word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Encode one Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 cur =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail cur "bad hex digit in \\u escape"
  in
  let get () =
    match peek cur with
    | Some c ->
        advance cur;
        digit c
    | None -> fail cur "truncated \\u escape"
  in
  let a = get () in
  let b = get () in
  let c = get () in
  let d = get () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
        advance cur;
        (match peek cur with
        | Some '"' ->
            advance cur;
            Buffer.add_char buf '"'
        | Some '\\' ->
            advance cur;
            Buffer.add_char buf '\\'
        | Some '/' ->
            advance cur;
            Buffer.add_char buf '/'
        | Some 'b' ->
            advance cur;
            Buffer.add_char buf '\b'
        | Some 'f' ->
            advance cur;
            Buffer.add_char buf '\012'
        | Some 'n' ->
            advance cur;
            Buffer.add_char buf '\n'
        | Some 'r' ->
            advance cur;
            Buffer.add_char buf '\r'
        | Some 't' ->
            advance cur;
            Buffer.add_char buf '\t'
        | Some 'u' ->
            advance cur;
            let u = hex4 cur in
            (* A high surrogate must pair with an immediately following
               \uDC00-\uDFFF low surrogate; anything else is malformed. *)
            if u >= 0xD800 && u <= 0xDBFF then begin
              expect cur '\\';
              expect cur 'u';
              let lo = hex4 cur in
              if lo < 0xDC00 || lo > 0xDFFF then fail cur "unpaired surrogate"
              else add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if u >= 0xDC00 && u <= 0xDFFF then fail cur "unpaired surrogate"
            else add_utf8 buf u
        | _ -> fail cur "bad escape");
        go ()
    | Some c when Char.code c < 0x20 -> fail cur "control character in string"
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let numeric c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when numeric c ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.text start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Num f
  | Some _ -> raise (Bad (Printf.sprintf "number out of range at offset %d" start))
  | None -> fail cur "bad number"

(* The deepest array/object nesting a value may have.  The deepest
   protocol request nests 4 levels; the cap bounds the parser's recursion,
   so a line of brackets fails at its 513th byte instead of growing the
   stack by one frame per byte. *)
let max_depth = 512

(* [depth] is the number of arrays and objects enclosing the value. *)
let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some ('[' | '{') when depth >= max_depth ->
      fail cur (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value cur (depth + 1) in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (kv :: acc)
          | Some '}' ->
              advance cur;
              List.rev (kv :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected %C" c)

let of_string text =
  let cur = { text; pos = 0 } in
  match parse_value cur 0 with
  | v ->
      skip_ws cur;
      if cur.pos < String.length text then Error "trailing garbage after JSON value" else Ok v
  | exception Bad msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let str v = match v with Str s -> Some s | _ -> None

let num v = match v with Num f -> Some f | _ -> None

let int v =
  match v with Num f when Float.is_integer f -> Some (int_of_float f) | _ -> None

let bool v = match v with Bool b -> Some b | _ -> None

let arr v = match v with Arr items -> Some items | _ -> None

let of_int i = Num (float_of_int i)
