(** Plain-text table rendering for the experiment harnesses.

    Tables are built as a header row plus data rows of strings; columns are
    right-aligned except the first, mirroring the layout of the paper's
    tables. *)

type t

val create : title:string -> header:string list -> t

val add_row : t -> string list -> unit
(** Rows may be shorter than the header; missing cells render empty. *)

val add_separator : t -> unit
(** A horizontal rule between row groups (used for the congestion-level
    sections of Table 1). *)

val add_note : t -> string -> unit
(** Free-form caption line printed beneath the table. *)

val to_string : t -> string

val print : t -> unit
(** [to_string] followed by a newline on stdout. *)

val fmt_signed : float -> string
(** Two-decimal fixed formatting with an explicit sign, matching the
    paper's +/- improvement columns. *)
