(** Minimal JSON codec for the serve protocol.

    The toolchain ships no JSON package, so the daemon carries its own:
    the full value grammar (RFC 8259) with string escapes including
    [\uXXXX] and surrogate pairs, emitted compactly on one line — the
    framing unit of the newline-delimited protocol.  Integers round-trip
    exactly below [1e15]; objects preserve field order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no newlines, ever — emitted strings
    escape them), so a value is always exactly one protocol frame. *)

val of_string : string -> (t, string) result
(** Parse one complete value; trailing non-whitespace is an error, and so
    is nesting arrays and objects more than 512 levels deep, which bounds
    the parser's stack and time on hostile input. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val str : t -> string option

val num : t -> float option

val int : t -> int option
(** [Some] only for integral numbers. *)

val bool : t -> bool option

val arr : t -> t list option

val of_int : int -> t
