(* Models of external (stdlib) functions.

   frdomcheck assumes a closed world over the project's cmt files plus
   this table; any external call not described here is conservatively an
   unknown effect.  Each entry says what the function mutates, whether it
   reads mutable state, which arguments it invokes (higher-order), and
   what its result can alias.

   Argument selectors use the same keys as function interfaces: "$n" is
   the n-th positional (unlabeled) argument, "~l" / "?l" a labeled one. *)

type result_shape =
  | R_fresh  (* result aliases nothing the caller knows: allocators, scalars *)
  | R_args of string list  (* result may alias these arguments: projections *)
  | R_unknown  (* no claim: folds, Fun.protect, ... *)

type entry = {
  e_mut : string list;  (* arguments mutated in place *)
  e_reads : bool;  (* reads mutable state *)
  e_global : string option;  (* mutates ambient state (global PRNG, stdout, GC) *)
  e_calls : (string * string list) list;
      (* higher-order: (function argument, data arguments whose roots flow
         into that function's parameters) *)
  e_res : result_shape;
}

let pure = { e_mut = []; e_reads = false; e_global = None; e_calls = []; e_res = R_fresh }

let proj args = { pure with e_res = R_args args }

let reads = { pure with e_reads = true }

let reads_proj args = { pure with e_reads = true; e_res = R_args args }

let mutates targets = { pure with e_mut = targets; e_reads = true }

let global what = { pure with e_global = Some what; e_reads = true; e_res = R_unknown }

let table : (string, entry) Hashtbl.t = Hashtbl.create 512

let reg names entry = List.iter (fun n -> Hashtbl.replace table n entry) names

let reg_mod m names entry = reg (List.map (fun n -> m ^ "." ^ n) names) entry

(* Operators and single-ident builtins: pure scalar arithmetic, comparisons,
   conversions.  Polymorphic compare reads no mutable state in this model —
   frlint separately polices its use on hot paths. *)
let () =
  reg
    [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "~-"; "~+";
      "+."; "-."; "*."; "/."; "**"; "~-."; "~+."; "="; "<>"; "<"; ">"; "<="; ">="; "==";
      "!="; "&&"; "||"; "&"; "or"; "not"; "^"; "compare"; "min"; "max"; "abs"; "abs_float";
      "succ"; "pred"; "sqrt"; "exp"; "log"; "log10"; "floor"; "ceil"; "mod_float";
      "truncate"; "float"; "float_of_int"; "int_of_float"; "int_of_char"; "char_of_int";
      "int_of_string"; "int_of_string_opt"; "string_of_int"; "string_of_float";
      "string_of_bool"; "bool_of_string"; "float_of_string"; "float_of_string_opt";
      "infinity"; "neg_infinity"; "nan"; "max_int"; "min_int"; "max_float"; "min_float";
      "epsilon_float"; "lnot"; "ignore"; "raise"; "raise_notrace"; "failwith";
      "invalid_arg"; "exit"; "classify_float" ]
    pure

let () =
  reg [ "fst"; "snd"; "Fun.id"; "Lazy.force"; "Option.get"; "Option.value"; "Result.get_ok" ]
    (proj [ "$0"; "$1" ])

(* References: [ref x] allocates a fresh cell but the *contents* alias the
   argument, so the cell's root joins it — assigning the cell then charges
   at worst the original root (conservative, never unsound). *)
let () =
  reg [ "ref" ] (proj [ "$0" ]);
  reg [ "!" ] (reads_proj [ "$0" ]);
  reg [ ":=" ] (mutates [ "$0" ]);
  reg [ "incr"; "decr" ] (mutates [ "$0" ])

let () =
  reg_mod "Atomic" [ "make" ] pure;
  reg_mod "Atomic" [ "get" ] (reads_proj [ "$0" ]);
  reg_mod "Atomic"
    [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]
    (mutates [ "$0" ])

let () =
  reg_mod "Array" [ "length" ] pure;
  reg_mod "Array" [ "get"; "unsafe_get" ] (reads_proj [ "$0" ]);
  reg_mod "Array" [ "make"; "create_float"; "init_unsafe" ] pure;
  reg_mod "Array" [ "make_matrix" ] pure;
  (* copy/sub/append/concat allocate a fresh spine, but elements are shared
     with the source: result joins the source roots. *)
  reg_mod "Array" [ "copy"; "sub"; "append"; "concat"; "of_list"; "to_list" ]
    (reads_proj [ "$0"; "$1" ]);
  reg_mod "Array" [ "set"; "unsafe_set"; "fill" ] (mutates [ "$0" ]);
  reg_mod "Array" [ "blit" ] (mutates [ "$2" ]);
  reg_mod "Array" [ "mem"; "memq" ] reads;
  reg_mod "Array" [ "init" ]
    { pure with e_calls = [ ("$1", []) ]; e_res = R_fresh };
  reg_mod "Array"
    [ "iter"; "iteri"; "map"; "mapi"; "exists"; "for_all"; "find_opt"; "find_index" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1" ]) ]; e_res = R_unknown };
  reg_mod "Array" [ "fold_left" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "Array" [ "fold_right" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "Array" [ "iter2"; "map2" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "Array" [ "sort"; "stable_sort"; "fast_sort" ]
    { pure with e_mut = [ "$1" ]; e_reads = true; e_calls = [ ("$0", [ "$1" ]) ] }

let () =
  reg_mod "List"
    [ "length"; "compare_lengths"; "compare_length_with"; "is_empty" ]
    pure;
  reg_mod "List"
    [ "hd"; "tl"; "nth"; "nth_opt"; "rev"; "append"; "rev_append"; "concat"; "flatten";
      "split"; "combine" ]
    (proj [ "$0"; "$1" ]);
  reg [ "@" ] (proj [ "$0"; "$1" ]);
  reg_mod "List" [ "init" ] { pure with e_calls = [ ("$1", []) ]; e_res = R_fresh };
  reg_mod "List"
    [ "iter"; "iteri"; "map"; "mapi"; "rev_map"; "filter"; "filteri"; "filter_map";
      "concat_map"; "find"; "find_opt"; "find_map"; "find_index"; "for_all"; "exists";
      "partition"; "partition_map"; "sort"; "stable_sort"; "sort_uniq"; "fast_sort";
      "merge"; "remove_assoc" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_args [ "$1"; "$2" ] };
  reg_mod "List" [ "fold_left" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "List" [ "fold_right" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "List" [ "iter2"; "for_all2"; "exists2"; "map2" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_args [ "$1"; "$2" ] };
  reg_mod "List" [ "mem"; "memq"; "mem_assoc"; "assoc"; "assoc_opt" ] (reads_proj [ "$0"; "$1" ])

let () =
  reg_mod "Hashtbl" [ "create" ] pure;
  reg_mod "Hashtbl" [ "length"; "mem"; "hash"; "stats" ] reads;
  reg_mod "Hashtbl" [ "find"; "find_opt"; "find_all"; "copy" ] (reads_proj [ "$0" ]);
  reg_mod "Hashtbl" [ "add"; "replace"; "remove"; "reset"; "clear" ] (mutates [ "$0" ]);
  reg_mod "Hashtbl" [ "iter" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1" ]) ]; e_res = R_fresh };
  reg_mod "Hashtbl" [ "fold" ]
    { pure with e_reads = true; e_calls = [ ("$0", [ "$1"; "$2" ]) ]; e_res = R_unknown };
  reg_mod "Hashtbl" [ "filter_map_inplace" ]
    { pure with e_mut = [ "$1" ]; e_reads = true; e_calls = [ ("$0", [ "$1" ]) ] }

let () =
  reg_mod "Bytes" [ "create"; "make"; "init"; "copy"; "of_string"; "to_string"; "sub_string" ] pure;
  reg_mod "Bytes" [ "length"; "get"; "unsafe_get" ] reads;
  reg_mod "Bytes" [ "set"; "unsafe_set"; "fill" ] (mutates [ "$0" ]);
  reg_mod "Bytes" [ "blit"; "blit_string" ] (mutates [ "$2" ])

let () =
  reg_mod "Buffer" [ "create" ] pure;
  reg_mod "Buffer" [ "contents"; "length"; "to_bytes"; "nth"; "sub" ] reads;
  reg_mod "Buffer"
    [ "add_char"; "add_string"; "add_bytes"; "add_substring"; "add_buffer"; "clear";
      "reset"; "truncate" ]
    (mutates [ "$0" ])

let () =
  reg_mod "Queue" [ "create" ] pure;
  reg_mod "Queue" [ "length"; "is_empty"; "peek"; "peek_opt"; "top" ] (reads_proj [ "$0" ]);
  reg_mod "Queue"
    [ "add"; "push"; "pop"; "take"; "take_opt"; "clear"; "transfer" ]
    (mutates [ "$0"; "$1" ]);
  reg_mod "Stack" [ "create" ] pure;
  reg_mod "Stack" [ "length"; "is_empty"; "top"; "top_opt" ] (reads_proj [ "$0" ]);
  reg_mod "Stack" [ "push"; "pop"; "pop_opt"; "clear" ] (mutates [ "$0"; "$1" ])

let () =
  reg_mod "String"
    [ "length"; "get"; "unsafe_get"; "sub"; "concat"; "make"; "init"; "equal"; "compare";
      "uppercase_ascii"; "lowercase_ascii"; "capitalize_ascii"; "uncapitalize_ascii";
      "index"; "index_opt"; "rindex"; "rindex_opt"; "contains"; "split_on_char"; "trim";
      "starts_with"; "ends_with"; "cat"; "escaped"; "map"; "iter"; "exists"; "for_all";
      "to_seq" ]
    pure;
  reg_mod "Char" [ "code"; "chr"; "escaped"; "lowercase_ascii"; "uppercase_ascii"; "equal"; "compare" ] pure;
  reg_mod "Int" [ "compare"; "equal"; "max"; "min"; "abs"; "to_float"; "to_string"; "max_int"; "min_int" ] pure;
  reg_mod "Float"
    [ "compare"; "equal"; "max"; "min"; "abs"; "of_int"; "to_int"; "is_nan"; "is_finite";
      "infinity"; "neg_infinity"; "nan"; "max_float"; "min_float"; "epsilon"; "round"; "to_string";
      "succ"; "pred" ]
    pure;
  reg_mod "Bool" [ "compare"; "equal"; "not"; "to_string" ] pure;
  reg_mod "Filename"
    [ "concat"; "basename"; "dirname"; "check_suffix"; "chop_suffix"; "chop_extension";
      "extension"; "remove_extension"; "quote" ]
    pure

let () =
  reg_mod "Option" [ "is_some"; "is_none"; "equal"; "compare" ] pure;
  reg_mod "Option" [ "to_list"; "join" ] (proj [ "$0" ]);
  reg_mod "Option" [ "map"; "iter"; "bind"; "fold" ]
    { pure with e_calls = [ ("$0", [ "$1" ]); ("~some", [ "$0" ]); ("~none", []) ]; e_res = R_unknown };
  reg_mod "Result" [ "is_ok"; "is_error" ] pure;
  reg_mod "Result" [ "to_option" ] (proj [ "$0" ]);
  reg_mod "Result" [ "map"; "iter"; "bind"; "map_error" ]
    { pure with e_calls = [ ("$0", [ "$1" ]) ]; e_res = R_unknown }

(* Fun.protect invokes both the body and ~finally; its result is the
   body's, which we cannot name — R_unknown. *)
let () =
  reg [ "Fun.protect" ]
    { pure with e_calls = [ ("$0", []); ("~finally", []) ]; e_res = R_unknown };
  reg [ "Fun.negate"; "Fun.flip" ] (proj [ "$0" ])

(* Ambient-state effects.  IO and the global PRNG classify as Mutates; any
   worker-reachable use is a real finding (frlint already bans most of
   these in lib/). *)
let () =
  reg
    [ "print_endline"; "print_string"; "print_newline"; "print_int"; "print_char";
      "print_float"; "prerr_endline"; "prerr_string"; "prerr_newline"; "Printf.printf";
      "Printf.eprintf"; "Format.printf"; "Format.eprintf"; "Format.print_flush";
      "output_string"; "output_char"; "output_value"; "flush"; "read_line"; "open_out";
      "close_out"; "open_in"; "close_in"; "input_line"; "really_input_string";
      "At_exit.register"; "at_exit" ]
    (global "io");
  reg_mod "Random" [ "int"; "full_int"; "float"; "bool"; "bits"; "self_init"; "init" ]
    (global "global PRNG state");
  reg_mod "Random.State" [ "make"; "copy"; "split" ] pure;
  reg_mod "Random.State" [ "int"; "full_int"; "float"; "bool"; "bits" ] (mutates [ "$0" ]);
  reg_mod "Gc" [ "compact"; "full_major"; "major"; "minor"; "set" ] (global "GC");
  reg_mod "Gc" [ "stat"; "quick_stat"; "minor_words" ] reads;
  reg_mod "Sys" [ "time"; "getenv"; "getenv_opt"; "file_exists"; "argv"; "word_size" ] reads;
  reg_mod "Printexc"
    [ "to_string"; "get_backtrace"; "get_raw_backtrace"; "raw_backtrace_to_string";
      "record_backtrace" ]
    reads;
  reg [ "Printexc.raise_with_backtrace" ] pure

(* Formatted-output builders that only allocate. *)
let () =
  reg [ "Printf.sprintf"; "Format.sprintf"; "Format.asprintf"; "Scanf.sscanf" ] pure

(* Domain-level synchronization: mutating the lock itself is charged to its
   root like any other in-place write. *)
let () =
  reg_mod "Mutex" [ "create" ] pure;
  reg_mod "Mutex" [ "lock"; "unlock"; "try_lock" ] (mutates [ "$0" ]);
  reg_mod "Condition" [ "create" ] pure;
  reg_mod "Condition" [ "wait"; "signal"; "broadcast" ] (mutates [ "$0"; "$1" ]);
  reg_mod "Domain" [ "cpu_count"; "recommended_domain_count"; "self" ] reads;
  reg_mod "Domain" [ "join" ] (mutates [ "$0" ]);
  (* Inside the trusted Pool unit a spawn analyzes like a plain call of the
     job thunk (outside it, Analyze intercepts spawns as worker roots). *)
  reg [ "Domain.spawn" ] { pure with e_calls = [ ("$0", []) ]; e_res = R_unknown }

let find name = Hashtbl.find_opt table name
