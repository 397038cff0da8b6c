(* The AST rule registry.

   Every rule is a check over Parsetree expressions driven by one
   [Ast_iterator] pass.  Rules are deliberately syntactic (we lint the
   Parsetree, not the Typedtree), so each one trades a little recall for
   zero build-dependency on type information; the heuristics are documented
   in DESIGN.md §"Static analysis" and each false positive can be silenced
   per-site with an inline [frlint: allow <rule-id> — reason] comment. *)

open Lintlib
open Parsetree

type ctx = {
  scope : Scope.t;
  module_name : string;
  file : string;
  mutable findings : Finding.t list;
  (* innermost-first stack of enclosing let-binding names *)
  mutable bindings : string list;
  (* innermost-first stack of enclosing (structure-defining) module names *)
  mutable modules : string list;
}

let add ctx loc rule message =
  ctx.findings <- Finding.of_location ~file:ctx.file ~rule ~message loc :: ctx.findings

(* ------------------------------------------------------------------ *)
(* no-linear-scan / no-obj-magic / no-print-in-lib: ident rules        *)
(* ------------------------------------------------------------------ *)

let linear_scan_fns =
  [ "mem"; "memq"; "assoc"; "assoc_opt"; "assq"; "assq_opt"; "mem_assoc"; "mem_assq" ]

let print_idents =
  [ "print_endline"; "print_string"; "print_newline"; "print_int"; "print_char"; "print_float" ]

let check_ident ctx loc (lid : Longident.t) =
  match lid with
  | Ldot (Lident "List", f) | Ldot (Ldot (Lident "Stdlib", "List"), f)
    when List.mem f linear_scan_fns ->
      if ctx.scope.Scope.hot then
        add ctx loc "no-linear-scan"
          (Printf.sprintf
             "List.%s is an O(n) scan per call on a router hot path; index with a \
              Hashtbl/Bitset instead"
             f)
  | Ldot (Lident "Obj", "magic") | Ldot (Ldot (Lident "Stdlib", "Obj"), "magic") ->
      add ctx loc "no-obj-magic" "Obj.magic defeats the type system; find a typed encoding"
  | Lident p when List.mem p print_idents ->
      if ctx.scope.Scope.in_lib && not ctx.scope.Scope.print_exempt then
        add ctx loc "no-print-in-lib"
          (p ^ " writes to stdout from library code; return data and print in bin/")
  | Ldot (Lident ("Printf" | "Format"), "printf") ->
      if ctx.scope.Scope.in_lib && not ctx.scope.Scope.print_exempt then
        add ctx loc "no-print-in-lib"
          "printf writes to stdout from library code; return data and print in bin/"
  | Lident (("==" | "!=") as op) | Ldot (Lident "Stdlib", (("==" | "!=") as op)) ->
      (* Physical equality on immutable data is representation-dependent:
         unboxing, sharing and copying all change the answer without
         changing the value.  Where identity of a mutable structure is the
         actual intent, say so with a suppression. *)
      if ctx.scope.Scope.hot then
        add ctx loc "no-physical-equality"
          (Printf.sprintf
             "physical equality (%s) in a hot library is representation-dependent; use \
              structural (%s) or a typed equality, or suppress where identity of a mutable \
              value is the intent"
             op
             (if op = "==" then "=" else "<>"))
  | Ldot (Lident "Random", fn) | Ldot (Ldot (Lident "Stdlib", "Random"), fn) ->
      (* Random.State.* arrives as Ldot (Ldot (Lident "Random", "State"), _)
         and so never matches here — explicit-state randomness is exactly
         what this rule steers code toward. *)
      if ctx.scope.Scope.hot then
        add ctx loc "no-global-mutable-random"
          (Printf.sprintf
             "Random.%s uses the global PRNG state, which is shared across domains and \
              breaks seeded reproducibility; thread a Random.State (Fr_util.Rng) instead"
             fn)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* no-polymorphic-compare                                              *)
(* ------------------------------------------------------------------ *)

(* "Trivial" operands — plain variables, constants, projections — keep the
   comparison out of scope: comparing two scalars by ident is idiomatic and
   cheap.  Structured literals and the results of function calls are where
   polymorphic compare both costs (caml_compare on boxed data) and bites
   (NaN, cyclic values, physical-vs-structural surprises). *)
let rec is_trivial e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_field (e, _) -> is_trivial e
  | Pexp_constraint (e, _) -> is_trivial e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match txt with
      | Ldot (Lident ("Array" | "String" | "Bytes"), ("get" | "unsafe_get"))
      | Ldot (Ldot (Lident "Stdlib", ("Array" | "String" | "Bytes")), ("get" | "unsafe_get"))
      | Lident
          ( "!" | "~-" | "~-." | "fst" | "snd" | "+" | "-" | "*" | "/" | "mod" | "land"
          | "lor" | "lxor" | "lsl" | "lsr" | "asr" | "+." | "-." | "*." | "/." | "**"
          | "abs" | "abs_float" | "succ" | "pred" | "float_of_int" | "int_of_float" ) ->
          List.for_all (fun (_, a) -> is_trivial a) args
      | _ -> false)
  | _ -> false

let is_constant e = match e.pexp_desc with Pexp_constant _ -> true | _ -> false

let poly_op (lid : Longident.t) =
  match lid with
  | Lident (("=" | "<>" | "compare" | "min" | "max") as op) -> Some op
  | Ldot (Lident "Stdlib", (("=" | "<>" | "compare" | "min" | "max") as op)) -> Some op
  | Ldot (Lident "Hashtbl", "hash") | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), "hash") ->
      Some "Hashtbl.hash"
  | _ -> None

(* Unapplied [compare] handed to a higher-order function ([List.sort_uniq
   compare ...]): the callee calls caml_compare per element pair, which the
   applied-operand check above never sees. *)
let bare_compare_ident (lid : Longident.t) =
  match lid with
  | Lident "compare" | Ldot (Lident "Stdlib", "compare") -> true
  | _ -> false

let check_poly_compare ctx loc fn args =
  if ctx.scope.Scope.hot then begin
    (match fn.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match poly_op txt with
        | Some op ->
            let exprs = List.map snd args in
            (* A literal operand pins the type to a scalar; skip those. *)
            if
              List.length exprs >= 1
              && List.exists (fun e -> not (is_trivial e)) exprs
              && not (List.exists is_constant exprs)
            then
              add ctx loc "no-polymorphic-compare"
                (Printf.sprintf
                   "polymorphic %s on a computed operand in a hot library; bind operands \
                    to scalars first, or use a typed comparison (Int.equal, Float.compare, ...)"
                   op)
        | None -> ())
    | _ -> ());
    List.iter
      (fun (_, a) ->
        match a.pexp_desc with
        | Pexp_ident { txt; _ } when bare_compare_ident txt ->
            add ctx a.pexp_loc "no-polymorphic-compare"
              "bare polymorphic compare passed as a function argument in a hot library; \
               pass a typed comparator (Int.compare, Float.compare, ...) instead"
        | _ -> ())
      args
  end

(* ------------------------------------------------------------------ *)
(* error-names-entry-point                                             *)
(* ------------------------------------------------------------------ *)

let string_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Accepted prefixes for a message raised here: [Mod.f] where [f] is any
   enclosing binding (inner helpers inherit their caller's public name) and
   [Mod] is the file module, optionally extended with the nested-module
   chain. *)
let message_prefix_ok ctx msg =
  match String.index_opt msg ':' with
  | None -> false
  | Some i ->
      let prefix = String.sub msg 0 i in
      let flat b = ctx.module_name ^ "." ^ b in
      let nested b =
        String.concat "." ((ctx.module_name :: List.rev ctx.modules) @ [ b ])
      in
      (match ctx.bindings with
      | [] ->
          (* toplevel effectful code: only require the module to be right *)
          String.length prefix > String.length ctx.module_name
          && String.sub prefix 0 (String.length ctx.module_name + 1) = ctx.module_name ^ "."
      | bs -> List.exists (fun b -> prefix = flat b || prefix = nested b) bs)

let check_error_message ctx loc msg =
  if ctx.scope.Scope.in_lib && not (message_prefix_ok ctx msg) then
    let expected =
      match ctx.bindings with
      | [] -> ctx.module_name ^ ".<fn>"
      | b :: _ -> ctx.module_name ^ "." ^ b
    in
    add ctx loc "error-names-entry-point"
      (Printf.sprintf
         "error message %S must begin with \"%s: \" (an enclosing binding of this site) so \
          the raised exception names its real entry point"
         msg expected)

let check_raise_site ctx loc fn args =
  match (fn.pexp_desc, args) with
  | Pexp_ident { txt = Lident ("failwith" | "invalid_arg"); _ }, [ (_, arg) ]
  | ( Pexp_ident { txt = Ldot (Lident "Stdlib", ("failwith" | "invalid_arg")); _ },
      [ (_, arg) ] ) -> (
      match string_literal arg with
      | Some msg -> check_error_message ctx loc msg
      | None -> ())
  | Pexp_ident { txt = Lident "raise"; _ }, [ (_, arg) ]
  | Pexp_ident { txt = Ldot (Lident "Stdlib", "raise"); _ }, [ (_, arg) ] -> (
      match arg.pexp_desc with
      | Pexp_construct
          ({ txt = Lident ("Invalid_argument" | "Failure"); _ }, Some payload) -> (
          match string_literal payload with
          | Some msg -> check_error_message ctx loc msg
          | None -> ())
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* no-silent-catch-all                                                 *)
(* ------------------------------------------------------------------ *)

let check_try ctx cases =
  List.iter
    (fun c ->
      match c.pc_lhs.ppat_desc with
      | Ppat_any ->
          add ctx c.pc_lhs.ppat_loc "no-silent-catch-all"
            "catch-all `with _ ->` discards the exception (including Out_of_memory and \
             Stack_overflow); match the exceptions you mean, or bind and re-raise"
      | _ -> ())
    cases

(* ------------------------------------------------------------------ *)
(* The iterator                                                        *)
(* ------------------------------------------------------------------ *)

let binding_name vb =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None

let iterator ctx =
  let default = Ast_iterator.default_iterator in
  {
    default with
    expr =
      (fun self e ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc txt
        | Pexp_apply (fn, args) ->
            check_poly_compare ctx e.pexp_loc fn args;
            check_raise_site ctx e.pexp_loc fn args
        | Pexp_try (_, cases) -> check_try ctx cases
        | _ -> ());
        default.expr self e);
    value_binding =
      (fun self vb ->
        match binding_name vb with
        | Some name ->
            ctx.bindings <- name :: ctx.bindings;
            default.value_binding self vb;
            ctx.bindings <- List.tl ctx.bindings
        | None -> default.value_binding self vb);
    module_binding =
      (fun self mb ->
        match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
        | Some name, (Pmod_structure _ | Pmod_constraint _) ->
            ctx.modules <- name :: ctx.modules;
            default.module_binding self mb;
            ctx.modules <- List.tl ctx.modules
        | _ -> default.module_binding self mb);
  }

let lint_structure ~scope ~module_name ~file ast =
  let ctx = { scope; module_name; file; findings = []; bindings = []; modules = [] } in
  let it = iterator ctx in
  it.Ast_iterator.structure it ast;
  List.rev ctx.findings
