(* The cmt effect analysis.

   One [state] holds the whole-project view: summaries by qualified name,
   module-level values, the record-field implementation registry, and the
   worker roots discovered at Fr_util.Pool.map (and Domain.spawn)
   call sites.  [Check] loads every cmt once, then calls [analyze_round]
   until no summary digest changes — an optimistic interprocedural
   fixpoint: a call to a not-yet-stable function uses last round's
   summary, and the next round repairs any optimism.

   The value domain is [Summary.root]; the walk is flow-insensitive and
   accumulates effects per enclosing function.  Three kinds of closures
   get their own standalone summaries: module-level and let-bound named
   functions (captures resolve through the shared environment), closures
   stored into record fields (also shared: a captured local is storage
   made at the construction site, a captured parameter charges the
   enclosing function's contract — attribution is at construction even if
   the record outlives the activation), and worker closures at spawn
   sites (fresh environment: capture *is* the sharing we check). *)

open Typedtree
module S = Summary

type fnval =
  | Fn of string  (* a named function: project summary or externals-table key *)
  | Partial of string * arg list  (* named target plus the arguments already applied *)
  | Inline  (* a closure whose body effects were already folded right here *)

and vinfo = {
  vroot : S.root;
  vfn : fnval option;
}

and arg =
  | Aval of string * vinfo
  | Afun of string * expression  (* syntactic closure argument, not yet folded *)
  | Aomit of string

type field_impls = {
  mutable known : string list;  (* summary names implementing this field *)
  mutable opaque : bool;  (* some store site was not a trackable function *)
}

type root_kind =
  | Root_named of string  (* worker is a named project function *)
  | Root_opaque of string  (* spawn argument we cannot analyze: description *)

type root_info = {
  rk : root_kind;
  r_loc : Location.t;
  r_file : string;
}

type state = {
  summaries : (string, S.t) Hashtbl.t;
  globals : (string, unit) Hashtbl.t;  (* module-level non-function values *)
  registry : (string, field_impls) Hashtbl.t;  (* "Type.t.field" -> impls *)
  roots : (string * root_info) list ref;  (* spawn-site discoveries *)
  units : (string, unit) Hashtbl.t;  (* unit prefixes, for project-name tests *)
  bnames : (string, string) Hashtbl.t;
      (* "<prefix>/<Ident.unique_name>" -> summary name.  Ident stamps are
         only unique within one compilation unit, so the key carries the
         binding's module prefix. *)
  val_fns : (string, string) Hashtbl.t;  (* module-level aliases: name -> target fn *)
  unmodeled : (string, unit) Hashtbl.t;  (* externals missing from Tables *)
  mutable changed : bool;
}

let create_state () =
  {
    summaries = Hashtbl.create 512;
    globals = Hashtbl.create 64;
    registry = Hashtbl.create 64;
    roots = ref [];
    units = Hashtbl.create 32;
    bnames = Hashtbl.create 512;
    val_fns = Hashtbl.create 16;
    unmodeled = Hashtbl.create 32;
    changed = false;
  }

(* Per-unit walking context.  [menv] maps the unit's module-level idents and
   persists; [venv] maps locals of the analysis in progress.  A fresh [venv]
   (worker closures, field-store closures) makes every captured local
   resolve to unknown — the conservative reading of a spawn or escape
   boundary. *)
type ctx = {
  st : state;
  prefix : string;  (* qualified prefix for bindings in this unit *)
  file : string;
  aliases : Names.aliases;
  menv : (string, vinfo) Hashtbl.t;
  venv : (string, vinfo) Hashtbl.t;
  fresh_env : bool;
  outer : S.t list;  (* lexically enclosing in-progress summaries, innermost first *)
}

let is_project st name =
  Hashtbl.fold (fun u () acc -> acc || Names.is_within ~prefix:u name) st.units false

let in_pool_unit ctx = Names.is_within ~prefix:"Fr_util.Pool" ctx.prefix

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

let register_root ctx name info =
  if not (List.mem_assoc name !(ctx.st.roots)) then begin
    ctx.st.roots := (name, info) :: !(ctx.st.roots);
    ctx.st.changed <- true
  end

let registry_find ctx key = Hashtbl.find_opt ctx.st.registry key

let registry_known ctx key name =
  let impls =
    match registry_find ctx key with
    | Some i -> i
    | None ->
        let i = { known = []; opaque = false } in
        Hashtbl.replace ctx.st.registry key i;
        i
  in
  if not (List.mem name impls.known) then begin
    impls.known <- name :: impls.known;
    ctx.st.changed <- true
  end

let registry_opaque ctx key =
  let impls =
    match registry_find ctx key with
    | Some i -> i
    | None ->
        let i = { known = []; opaque = false } in
        Hashtbl.replace ctx.st.registry key i;
        i
  in
  if not impls.opaque then begin
    impls.opaque <- true;
    ctx.st.changed <- true
  end

(* ------------------------------------------------------------------ *)
(* Types and names                                                     *)
(* ------------------------------------------------------------------ *)

(* The registry key for a record field: the record type's qualified name
   plus the label.  A [Pident] type path is local to the defining unit, so
   it is qualified with the current prefix to meet uses from other units,
   which arrive as full [Pdot] chains. *)
let type_key ctx (ty : Types.type_expr) lbl =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      let n = Names.of_path ~aliases:ctx.aliases p in
      let n = match p with Path.Pident _ -> ctx.prefix ^ "." ^ n | _ -> n in
      Some (n ^ "." ^ lbl)
  | _ -> None

let rec is_function_type ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_function_type t
  | Types.Tconstr (p, [ t ], _) when Path.name p = "option" -> is_function_type t
  | _ -> false

(* Strict arrow test (no option-of-arrow): an application whose result type
   is still an arrow is a partial application. *)
let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

(* A value of a deeply-immutable type cannot transmit mutation, so reading
   one — even a module-level one — yields a fresh root instead of a taint.
   This is what keeps a module-level scalar used as an optional argument's
   default ([?(capacity = default_capacity)] in Dist_cache) from marking
   every structure it is stored into as globally shared. *)
let rec immutable_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
      match Path.name p with
      | "int" | "float" | "bool" | "char" | "unit" | "string" | "nativeint"
      | "int32" | "int64" ->
          true
      | "option" | "list" -> List.for_all immutable_type args
      | _ -> false)
  | Types.Ttuple ts -> List.for_all immutable_type ts
  | Types.Tpoly (t, _) -> immutable_type t
  | _ -> false

let is_syntactic_fn e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* The typechecker eta-fills omitted optional arguments with a literal
   [None]; as an argument that is an omission, not a value to track. *)
let is_none_literal e =
  match e.exp_desc with
  | Texp_construct (_, c, []) -> c.Types.cstr_name = "None"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Environment binding                                                 *)
(* ------------------------------------------------------------------ *)

let bind_ident ctx id info = Hashtbl.replace ctx.venv (Ident.unique_name id) info

let rec bind_pattern : type k. ctx -> k general_pattern -> S.root -> unit =
 fun ctx p root ->
  match p.pat_desc with
  | Tpat_var (id, _) -> bind_ident ctx id { vroot = root; vfn = None }
  | Tpat_alias (sub, id, _) ->
      bind_ident ctx id { vroot = root; vfn = None };
      bind_pattern ctx sub root
  | Tpat_tuple ps -> List.iter (fun sub -> bind_pattern ctx sub root) ps
  | Tpat_construct (_, _, ps, _) -> List.iter (fun sub -> bind_pattern ctx sub root) ps
  | Tpat_variant (_, Some sub, _) -> bind_pattern ctx sub root
  | Tpat_variant (_, None, _) -> ()
  | Tpat_record (fields, _) -> List.iter (fun (_, _, sub) -> bind_pattern ctx sub root) fields
  | Tpat_array ps -> List.iter (fun sub -> bind_pattern ctx sub root) ps
  | Tpat_lazy sub -> bind_pattern ctx sub root
  | Tpat_or (a, b, _) ->
      bind_pattern ctx a root;
      bind_pattern ctx b root
  | Tpat_value arg -> bind_pattern ctx (arg :> value general_pattern) root
  | Tpat_exception sub -> bind_pattern ctx sub (S.unknown "caught exception")
  | Tpat_any | Tpat_constant _ -> ()

let lookup_ident ctx id =
  let key = Ident.unique_name id in
  match Hashtbl.find_opt ctx.venv key with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt ctx.menv key with
      | Some v -> v
      | None ->
          let why =
            if ctx.fresh_env then "captured across a closure/spawn boundary"
            else "untracked local " ^ Ident.name id
          in
          { vroot = S.unknown why; vfn = None })

let resolve_path ctx (p : Path.t) : vinfo =
  match p with
  | Path.Pident id -> lookup_ident ctx id
  | _ ->
      let name = Names.of_path ~aliases:ctx.aliases p in
      if is_project ctx.st name then
        if Hashtbl.mem ctx.st.globals name then
          match Hashtbl.find_opt ctx.st.val_fns name with
          | Some target -> { vroot = S.of_global name; vfn = Some (Fn target) }
          | None -> { vroot = S.of_global name; vfn = None }
        else { vroot = S.fresh; vfn = Some (Fn name) }
      else
        let vroot =
          if Tables.find name <> None then S.fresh else S.unknown ("external " ^ name)
        in
        { vroot; vfn = Some (Fn name) }

(* ------------------------------------------------------------------ *)
(* Effect discharge                                                    *)
(* ------------------------------------------------------------------ *)

(* Parameter roots are owner-qualified ("Fn#$0"): a hit on the summary that
   owns the parameter lands in *that* summary's contract — the current one,
   or a lexical encloser when a nested function touches a captured value. *)
let owner_summary stack owner =
  List.find_opt (fun (s : S.t) -> String.equal s.S.sname owner) stack

(* A mutation lands according to the target's root: fresh is benign, a
   parameter becomes part of its owner's contract, anything else is an
   offense recorded in place. *)
let charge_mut ctx sum (root : S.root) ~loc ~desc =
  S.SS.iter
    (fun q ->
      let owner, p = S.split_qualified q in
      match owner_summary (sum :: ctx.outer) owner with
      | Some s -> S.add_mutp s p ~loc ~desc
      | None ->
          S.add_offense sum ~rule:S.rule_mutation ~loc
            ~desc:(desc ^ " on a value that escaped from " ^ owner))
    root.S.rp;
  S.SS.iter
    (fun g ->
      S.add_offense sum ~rule:S.rule_mutation ~loc ~desc:(desc ^ " on global " ^ g))
    root.S.rg;
  match root.S.run with
  | Some why ->
      S.add_offense sum ~rule:S.rule_mutation ~loc
        ~desc:(desc ^ " on a value of unknown ownership (" ^ why ^ ")")
  | None -> ()

(* Invoking a closure value we have no summary for. *)
let charge_callv ctx sum (root : S.root) ~loc ~desc =
  if S.is_fresh root then
    S.add_offense sum ~rule:S.rule_unknown_call ~loc ~desc:(desc ^ " (untracked closure)")
  else begin
    S.SS.iter
      (fun q ->
        let owner, p = S.split_qualified q in
        match owner_summary (sum :: ctx.outer) owner with
        | Some s -> S.add_callp s p ~loc ~desc
        | None ->
            S.add_offense sum ~rule:S.rule_unknown_call ~loc
              ~desc:(desc ^ " (closure that escaped from " ^ owner ^ ")"))
      root.S.rp;
    S.SS.iter
      (fun g ->
        S.add_offense sum ~rule:S.rule_unknown_call ~loc
          ~desc:(desc ^ " (closure held in global " ^ g ^ ")"))
      root.S.rg;
    match root.S.run with
    | Some why ->
        S.add_offense sum ~rule:S.rule_unknown_call ~loc
          ~desc:(desc ^ " (closure of unknown origin: " ^ why ^ ")")
    | None -> ()
  end

let arg_key = function Aval (k, _) | Afun (k, _) | Aomit k -> k

let arg_find args k = List.find_opt (fun a -> String.equal (arg_key a) k) args

let arg_root = function
  | Aval (_, v) -> v.vroot
  | Afun _ | Aomit _ -> S.fresh

(* Substitute a callee-namespace root into the caller's, through the
   argument matching.  Only parameters the callee itself owns substitute;
   keys owned by the callee's lexical enclosers pass through unchanged
   (they stay meaningful while the encloser's activation is live, and the
   charge helpers flag them if they truly escaped). *)
let subst_root ~callee args (root : S.root) =
  let keep = ref S.SS.empty in
  let from_params =
    S.SS.fold
      (fun q acc ->
        let owner, p = S.split_qualified q in
        if String.equal owner callee then
          match arg_find args p with
          | Some a -> S.join acc (arg_root a)
          | None -> acc
        else begin
          keep := S.SS.add q !keep;
          acc
        end)
      root.S.rp S.fresh
  in
  {
    S.rp = S.SS.union from_params.S.rp !keep;
    S.rg = S.SS.union from_params.S.rg root.S.rg;
    S.run = (match from_params.S.run with Some _ as s -> s | None -> root.S.run);
  }

(* Package the surviving argument list of a partial application: closure
   literals were already folded at this site, so they ride along as inert
   [Inline] slots instead of being folded a second time at completion. *)
let partial_args eargs =
  List.map
    (function
      | Afun (k, _) -> Aval (k, { vroot = S.fresh; vfn = Some Inline })
      | a -> a)
    eargs

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let rec eval ctx sum (e : expression) : vinfo =
  let fresh = { vroot = S.fresh; vfn = None } in
  let of_root r = { vroot = r; vfn = None } in
  match e.exp_desc with
  | Texp_constant _ | Texp_unreachable | Texp_extension_constructor _ -> fresh
  | Texp_ident (p, _, _) ->
      let v = resolve_path ctx p in
      if v.vfn = None && immutable_type e.exp_type then { v with vroot = S.fresh }
      else v
  | Texp_function _ ->
      (* A closure in generic position escapes: fold its body here, with
         parameters of unknown ownership (its eventual caller's data). *)
      fold_lambda ctx sum ~param_root:(S.unknown "parameter of an escaping closure") e;
      { vroot = S.fresh; vfn = Some Inline }
  | Texp_apply (f, args) -> eval_apply ctx sum ~rty:(Some e.exp_type) e.exp_loc f args
  | Texp_field (obj, _, lbl) ->
      let o = eval ctx sum obj in
      if lbl.Types.lbl_mut = Asttypes.Mutable then sum.S.reads <- true;
      of_root o.vroot
  | Texp_setfield (obj, _, lbl, v) ->
      let o = eval ctx sum obj in
      let handled = field_store ctx sum ~rty:obj.exp_type lbl v ~loc:e.exp_loc in
      if not handled then ignore (eval ctx sum v);
      charge_mut ctx sum o.vroot ~loc:e.exp_loc
        ~desc:("writes field " ^ lbl.Types.lbl_name);
      fresh
  | Texp_record { fields; extended_expression; _ } ->
      let base =
        match extended_expression with
        | Some b -> (eval ctx sum b).vroot
        | None -> S.fresh
      in
      let root = ref base in
      Array.iter
        (fun (lbl, def) ->
          match def with
          | Kept _ -> ()
          | Overridden (_, fe) ->
              let handled = field_store ctx sum ~rty:e.exp_type lbl fe ~loc:fe.exp_loc in
              if not handled then root := S.join !root (eval ctx sum fe).vroot)
        fields;
      of_root !root
  | Texp_let (_, vbs, body) ->
      List.iter (eval_binding ctx sum) vbs;
      eval ctx sum body
  | Texp_match (scrut, cases, _) ->
      let sroot = (eval ctx sum scrut).vroot in
      let rets =
        List.map
          (fun { c_lhs; c_guard; c_rhs } ->
            bind_pattern ctx c_lhs sroot;
            Option.iter (fun g -> ignore (eval ctx sum g)) c_guard;
            eval ctx sum c_rhs)
          cases
      in
      (* A join of closures whose bodies were all folded in place stays
         [Inline]: invoking the joined value adds no unseen effect. *)
      let vfn =
        if rets <> [] && List.for_all (fun v -> v.vfn = Some Inline) rets then
          Some Inline
        else None
      in
      { vroot = S.joins (List.map (fun v -> v.vroot) rets); vfn }
  | Texp_try (body, cases) ->
      let b = (eval ctx sum body).vroot in
      let rets =
        List.map
          (fun { c_lhs; c_guard; c_rhs } ->
            bind_pattern ctx c_lhs (S.unknown "caught exception");
            Option.iter (fun g -> ignore (eval ctx sum g)) c_guard;
            (eval ctx sum c_rhs).vroot)
          cases
      in
      of_root (S.joins (b :: rets))
  | Texp_ifthenelse (c, t, eo) ->
      ignore (eval ctx sum c);
      let vt = eval ctx sum t in
      let ve =
        match eo with
        | Some el -> eval ctx sum el
        | None -> fresh
      in
      let vfn =
        if eo <> None && vt.vfn = Some Inline && ve.vfn = Some Inline then
          Some Inline
        else None
      in
      { vroot = S.join vt.vroot ve.vroot; vfn }
  | Texp_sequence (a, b) ->
      ignore (eval ctx sum a);
      eval ctx sum b
  | Texp_while (c, body) ->
      ignore (eval ctx sum c);
      ignore (eval ctx sum body);
      fresh
  | Texp_for (id, _, lo, hi, _, body) ->
      ignore (eval ctx sum lo);
      ignore (eval ctx sum hi);
      bind_ident ctx id { vroot = S.fresh; vfn = None };
      ignore (eval ctx sum body);
      fresh
  | Texp_tuple es | Texp_array es ->
      of_root (S.joins (List.map (fun x -> (eval ctx sum x).vroot) es))
  | Texp_construct (_, _, es) ->
      of_root (S.joins (List.map (fun x -> (eval ctx sum x).vroot) es))
  | Texp_variant (_, eo) ->
      of_root (match eo with Some x -> (eval ctx sum x).vroot | None -> S.fresh)
  | Texp_assert (e1, _) ->
      ignore (eval ctx sum e1);
      fresh
  | Texp_lazy e1 ->
      (* folded eagerly: a conservative over-approximation of forcing *)
      eval ctx sum e1
  | Texp_open (_, body) -> eval ctx sum body
  | Texp_letexception (_, body) -> eval ctx sum body
  | Texp_letmodule (_, _, _, _, body) ->
      (* local module bodies are not analyzed; their exports resolve to
         unknown, which keeps any use conservative *)
      eval ctx sum body
  | Texp_letop { let_; ands; body; _ } ->
      ignore (eval ctx sum let_.bop_exp);
      List.iter (fun a -> ignore (eval ctx sum a.bop_exp)) ands;
      bind_pattern ctx body.c_lhs (S.unknown "binding-operator result");
      ignore (eval ctx sum body.c_rhs);
      of_root (S.unknown "binding-operator result")
  | Texp_new _ | Texp_instvar _ | Texp_setinstvar _ | Texp_override _ | Texp_send _
  | Texp_object _ | Texp_pack _ ->
      S.add_offense sum ~rule:S.rule_unknown_call ~loc:e.exp_loc
        ~desc:"object/first-class-module construct is not modeled";
      of_root (S.unknown "unmodeled construct")

and eval_binding ctx sum vb =
  match (vb.vb_pat.pat_desc, is_syntactic_fn vb.vb_expr) with
  | Tpat_var (id, _), true | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _), true ->
      (* A named local function gets its own summary so call sites can
         discharge against the actual arguments (shared environment: its
         captures resolve to whatever they are here). *)
      let name = sum.S.sname ^ "." ^ Ident.name id in
      bind_ident ctx id { vroot = S.fresh; vfn = Some (Fn name) };
      let fsum =
        analyze_fn
          { ctx with outer = sum :: ctx.outer }
          ~name ~loc:vb.vb_loc ~shared:true vb.vb_expr
      in
      replace_summary ctx name fsum;
      S.add_edge sum name ~loc:vb.vb_loc
  | _, _ ->
      let v = eval ctx sum vb.vb_expr in
      (match vb.vb_pat.pat_desc with
      | Tpat_var (id, _) -> bind_ident ctx id v
      | p ->
          ignore p;
          bind_pattern ctx vb.vb_pat v.vroot)

(* Fold a closure's body into [sum] right now, binding every parameter of
   every layer to [param_root]. *)
and fold_lambda ctx sum ~param_root e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun { c_lhs; c_guard; c_rhs } ->
          bind_pattern ctx c_lhs param_root;
          Option.iter (fun g -> ignore (eval ctx sum g)) c_guard;
          fold_lambda ctx sum ~param_root c_rhs)
        cases
  | _ -> ignore (eval ctx sum e)

(* Build a standalone summary for a function expression.  [shared] keeps
   the current local environment (named let-bound functions); otherwise a
   fresh one makes captures unknown (field-store and worker closures). *)
and analyze_fn ctx ~name ~loc ~shared e =
  let ctx =
    if shared then ctx
    else { ctx with venv = Hashtbl.create 16; fresh_env = true; outer = [] }
  in
  let sum = S.create ~name ~loc ~file:ctx.file ~params:[] ~is_fn:true in
  peel ctx sum e;
  sum

(* Does this expression still contribute parameters?  Optional arguments
   with defaults desugar to a [let] between the curried [Texp_function]
   layers, so the walk must look through binding chains. *)
and continues_fn e =
  match e.exp_desc with
  | Texp_function _ -> true
  | Texp_let (_, _, body) -> continues_fn body
  | _ -> false

and peel_body ctx sum e =
  match e.exp_desc with
  | Texp_function _ -> peel ctx sum e
  | Texp_let (_, vbs, body) ->
      List.iter (eval_binding ctx sum) vbs;
      peel_body ctx sum body
  | _ -> sum.S.ret <- (eval ctx sum e).vroot

and peel ctx sum e =
  match e.exp_desc with
  | Texp_function { arg_label; cases; _ } -> (
      let key =
        match arg_label with
        | Asttypes.Nolabel ->
            let c =
              List.length (List.filter (fun k -> String.length k > 0 && k.[0] = '$') sum.S.params)
            in
            "$" ^ string_of_int c
        | Asttypes.Labelled l -> "~" ^ l
        | Asttypes.Optional l -> "?" ^ l
      in
      sum.S.params <- sum.S.params @ [ key ];
      let root = S.of_param (S.qualify ~owner:sum.S.sname key) in
      match cases with
      | [ { c_lhs; c_guard; c_rhs } ] when continues_fn c_rhs ->
          bind_pattern ctx c_lhs root;
          Option.iter (fun g -> ignore (eval ctx sum g)) c_guard;
          peel_body ctx sum c_rhs
      | cases ->
          let rets =
            List.map
              (fun { c_lhs; c_guard; c_rhs } ->
                bind_pattern ctx c_lhs root;
                Option.iter (fun g -> ignore (eval ctx sum g)) c_guard;
                (eval ctx sum c_rhs).vroot)
              cases
          in
          sum.S.ret <- S.joins rets)
  | _ -> sum.S.ret <- (eval ctx sum e).vroot

(* Record a function-typed store into a record field.  Returns true when the
   store was a closure literal that got its own summary (so the caller must
   not fold it a second time). *)
and field_store ctx sum ~rty lbl fe ~loc =
  if not (is_function_type lbl.Types.lbl_arg) then false
  else
    match type_key ctx rty lbl.Types.lbl_name with
    | None -> false
    | Some key -> (
        let stored =
          match fe.exp_desc with
          | Texp_construct (_, c, [ inner ]) when c.Types.cstr_name = "Some" -> inner
          | _ -> fe
        in
        match stored.exp_desc with
        | Texp_construct (_, c, []) when c.Types.cstr_name = "None" -> false
        | Texp_function _ ->
            (* Analyzed with the shared environment: a capture of a local is
               fresh storage made where the record was built, and a capture
               of a parameter charges the enclosing function's contract.
               (If the record outlives that activation the attribution is at
               the construction site — documented approximation.) *)
            let name =
              Printf.sprintf "%s.<%s:%d>" ctx.prefix lbl.Types.lbl_name
                (loc_line stored.exp_loc)
            in
            let fsum =
              analyze_fn
                { ctx with outer = sum :: ctx.outer }
                ~name ~loc:stored.exp_loc ~shared:true stored
            in
            replace_summary ctx name fsum;
            registry_known ctx key name;
            S.add_edge sum name ~loc;
            true
        | Texp_ident (p, _, _) -> (
            match (resolve_path ctx p).vfn with
            | Some (Fn n) when Hashtbl.mem ctx.st.summaries n || is_project ctx.st n ->
                registry_known ctx key n;
                S.add_edge sum n ~loc;
                false
            | _ ->
                registry_opaque ctx key;
                false)
        | _ ->
            registry_opaque ctx key;
            false)

and fold_afuns ctx sum eargs ~why =
  List.iter
    (function
      | Afun (_, e) -> fold_lambda ctx sum ~param_root:(S.unknown why) e
      | _ -> ())
    eargs

and eval_apply ctx sum ~rty loc f args =
  match f.exp_desc with
  | Texp_apply (f', args') ->
      (* flatten curried applications so one dispatch sees all arguments *)
      eval_apply ctx sum ~rty loc f' (args' @ args)
  | Texp_ident ((Path.Pdot _ as p), _, _)
    when (match Names.of_path ~aliases:ctx.aliases p with
         | "@@" | "|>" -> true
         | _ -> false) -> (
      match (Names.of_path ~aliases:ctx.aliases p, args) with
      | "@@", [ (Asttypes.Nolabel, Some fe); (Asttypes.Nolabel, Some ae) ] ->
          eval_apply ctx sum ~rty loc fe [ (Asttypes.Nolabel, Some ae) ]
      | "|>", [ (Asttypes.Nolabel, Some ae); (Asttypes.Nolabel, Some fe) ] ->
          eval_apply ctx sum ~rty loc fe [ (Asttypes.Nolabel, Some ae) ]
      | _ ->
          List.iter (fun (_, eo) -> Option.iter (fun a -> ignore (eval ctx sum a)) eo) args;
          { vroot = S.unknown "partial pipeline operator"; vfn = None })
  | Texp_ident ((Path.Pdot _ as p), _, _)
    when (not (in_pool_unit ctx))
         && (match Names.of_path ~aliases:ctx.aliases p with
            | "Fr_util.Pool.map" | "Domain.spawn" -> true
            | _ -> false) ->
      handle_spawn ctx sum ~loc (Names.of_path ~aliases:ctx.aliases p) args
  | _ ->
      let n = ref 0 in
      let eargs =
        List.map
          (fun (lbl, eo) ->
            let key =
              match lbl with
              | Asttypes.Nolabel ->
                  let k = "$" ^ string_of_int !n in
                  incr n;
                  k
              | Asttypes.Labelled l -> "~" ^ l
              | Asttypes.Optional l -> "?" ^ l
            in
            match eo with
            | None -> Aomit key
            | Some a ->
                (* [~label:v] against an optional parameter arrives wrapped
                   in [Some]; track the payload so a closure keeps its
                   identity through the wrap. *)
                let a =
                  match (lbl, a.exp_desc) with
                  | Asttypes.Optional _, Texp_construct (_, c, [ inner ])
                    when c.Types.cstr_name = "Some" ->
                      inner
                  | _ -> a
                in
                if is_none_literal a then Aomit key
                else if is_syntactic_fn a then Afun (key, a)
                else Aval (key, eval ctx sum a))
          args
      in
      (match f.exp_desc with
      | Texp_field (obj, _, lbl) -> (
          let o = eval ctx sum obj in
          if lbl.Types.lbl_mut = Asttypes.Mutable then sum.S.reads <- true;
          let impls =
            match type_key ctx obj.exp_type lbl.Types.lbl_name with
            | Some key -> registry_find ctx key
            | None -> None
          in
          match impls with
          | Some { known = _ :: _ as cands; opaque = false } ->
              let results =
                List.map
                  (fun cand ->
                    if Hashtbl.mem ctx.st.summaries cand then
                      (charge_named_call ctx sum ~loc cand eargs).vroot
                    else begin
                      S.add_offense sum ~rule:S.rule_unknown_call ~loc
                        ~desc:
                          ("call through field " ^ lbl.Types.lbl_name
                         ^ " reaches unanalyzed " ^ cand);
                      S.unknown cand
                    end)
                  cands
              in
              { vroot = S.joins results; vfn = None }
          | _ ->
              charge_callv ctx sum o.vroot ~loc
                ~desc:("call through record field " ^ lbl.Types.lbl_name);
              fold_afuns ctx sum eargs
                ~why:("argument of a call through field " ^ lbl.Types.lbl_name);
              { vroot = S.unknown ("result of field call " ^ lbl.Types.lbl_name); vfn = None })
      | _ -> dispatch_call ctx sum ~rty ~loc (eval ctx sum f) eargs)

and dispatch_call ctx sum ?(rty = None) ~loc (v : vinfo) eargs =
  match v.vfn with
  | Some Inline ->
      (* effects were folded where the closure literal appeared *)
      { vroot = S.fresh; vfn = None }
  | Some (Partial (name, stored)) ->
      (* completing (or extending) a partial application: renumber the new
         positional arguments past the stored ones and re-dispatch *)
      let offset =
        List.length
          (List.filter
             (fun a ->
               let k = arg_key a in
               String.length k > 0 && k.[0] = '$')
             stored)
      in
      let rekey k =
        if String.length k > 1 && k.[0] = '$' then
          match int_of_string_opt (String.sub k 1 (String.length k - 1)) with
          | Some i -> "$" ^ string_of_int (i + offset)
          | None -> k
        else k
      in
      let renumber = function
        | Aval (k, v) -> Aval (rekey k, v)
        | Afun (k, e) -> Afun (rekey k, e)
        | Aomit k -> Aomit (rekey k)
      in
      dispatch_call ctx sum ~rty ~loc
        { vroot = S.fresh; vfn = Some (Fn name) }
        (stored @ List.map renumber eargs)
  | Some (Fn name0) ->
      (* a module-level [let f = Other.g] redirects to its target *)
      let rec redirect fuel n =
        match Hashtbl.find_opt ctx.st.val_fns n with
        | Some t when fuel > 0 && t <> n -> redirect (fuel - 1) t
        | _ -> n
      in
      let name = redirect 5 name0 in
      (match Hashtbl.find_opt ctx.st.summaries name with
      | Some callee when callee.S.is_fn -> charge_named_call ctx sum ~loc name eargs
      | Some _ ->
          (* calling a module-level value we have no function body for *)
          S.add_offense sum ~rule:S.rule_unknown_call ~loc
            ~desc:("call of module-level value " ^ name ^ " with no function summary");
          fold_afuns ctx sum eargs ~why:("closure passed to " ^ name);
          { vroot = S.unknown ("result of " ^ name); vfn = None }
      | None -> (
        match Tables.find name with
        | Some entry -> charge_external ctx sum ~rty ~loc name entry eargs
        | None ->
            if is_project ctx.st name then
              S.add_offense sum ~rule:S.rule_unknown_call ~loc
                ~desc:("call of unanalyzed project value " ^ name)
            else begin
              Hashtbl.replace ctx.st.unmodeled name ();
              S.add_offense sum ~rule:S.rule_unknown_call ~loc
                ~desc:("call of unmodeled external " ^ name)
            end;
            fold_afuns ctx sum eargs ~why:("closure passed to " ^ name);
            { vroot = S.unknown ("result of " ^ name); vfn = None }))
  | None ->
      charge_callv ctx sum v.vroot ~loc ~desc:"call of a computed function value";
      fold_afuns ctx sum eargs ~why:"closure passed to a computed function";
      { vroot = S.unknown "result of an untracked call"; vfn = None }

and charge_named_call ctx sum ~loc name eargs =
  let callee = Hashtbl.find ctx.st.summaries name in
  S.add_edge sum name ~loc;
  let total =
    List.for_all
      (fun p -> (String.length p > 0 && p.[0] = '?') || arg_find eargs p <> None)
      callee.S.params
  in
  fold_afuns ctx sum eargs ~why:("closure passed to " ^ name);
  List.iter
    (fun (p, (prov : S.prov)) ->
      match arg_find eargs p with
      | Some a ->
          charge_mut ctx sum (arg_root a) ~loc
            ~desc:(name ^ " mutates its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")")
      | None -> ())
    callee.S.mutp;
  List.iter
    (fun (p, (prov : S.prov)) ->
      match arg_find eargs p with
      | Some (Afun _) | Some (Aomit _) | None -> ()
      | Some (Aval (_, av)) -> (
          match av.vfn with
          | Some Inline -> ()
          | Some (Fn n) ->
              charge_passed_fn ctx sum ~loc n
                ~argroot:(S.unknown ("argument of " ^ n ^ " when invoked by " ^ name))
          | Some (Partial (n, stored)) ->
              charge_partial ctx sum ~loc n stored
                ~argroot:(S.unknown ("argument of " ^ n ^ " when invoked by " ^ name))
          | None ->
              charge_callv ctx sum av.vroot ~loc
                ~desc:(name ^ " invokes its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")")))
    callee.S.callp;
  if total then { vroot = subst_root ~callee:name eargs callee.S.ret; vfn = None }
  else
    (* Partial application: parameter-level effects on the matched prefix
       were charged above (a conservative double-count against completion);
       the closure result aliases the applied arguments and remembers the
       target so a later full application discharges precisely. *)
    let vroot =
      S.joins
        (List.filter_map (function Aval (_, v) -> Some v.vroot | _ -> None) eargs)
    in
    { vroot; vfn = Some (Partial (name, partial_args eargs)) }

(* A partially applied named function invoked by someone else: parameters
   matched at the partial-application site discharge against their actual
   roots; the rest were supplied by the unseen caller and get [argroot]. *)
and charge_partial ctx sum ~loc n stored ~argroot =
  match Hashtbl.find_opt ctx.st.summaries n with
  | Some callee when callee.S.is_fn ->
      S.add_edge sum n ~loc;
      List.iter
        (fun (p, (prov : S.prov)) ->
          let root = match arg_find stored p with Some a -> arg_root a | None -> argroot in
          charge_mut ctx sum root ~loc
            ~desc:(n ^ " mutates its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")"))
        callee.S.mutp;
      List.iter
        (fun (p, (prov : S.prov)) ->
          match arg_find stored p with
          | Some (Aval (_, av)) -> (
              match av.vfn with
              | Some Inline -> ()
              | Some (Fn m) ->
                  charge_passed_fn ctx sum ~loc m
                    ~argroot:(S.unknown ("argument of " ^ m ^ " when invoked by " ^ n))
              | Some (Partial (m, st2)) ->
                  charge_partial ctx sum ~loc m st2
                    ~argroot:(S.unknown ("argument of " ^ m ^ " when invoked by " ^ n))
              | None ->
                  charge_callv ctx sum av.vroot ~loc
                    ~desc:(n ^ " invokes its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")"))
          | _ ->
              charge_callv ctx sum argroot ~loc
                ~desc:(n ^ " invokes its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")"))
        callee.S.callp
  | _ -> charge_passed_fn ctx sum ~loc n ~argroot

(* A named function passed as a higher-order argument: it will be invoked
   with arguments we cannot see, so its parameter-level effects are charged
   against [argroot]. *)
and charge_passed_fn ctx sum ~loc n ~argroot =
  match Hashtbl.find_opt ctx.st.summaries n with
  | Some callee ->
      S.add_edge sum n ~loc;
      List.iter
        (fun (p, (prov : S.prov)) ->
          charge_mut ctx sum argroot ~loc
            ~desc:(n ^ " mutates its argument " ^ p ^ " (" ^ prov.S.pdesc ^ ")"))
        callee.S.mutp;
      List.iter
        (fun (p, _) ->
          charge_callv ctx sum argroot ~loc ~desc:(n ^ " invokes its argument " ^ p))
        callee.S.callp
  | None -> (
      match Tables.find n with
      | Some entry ->
          if entry.Tables.e_reads then sum.S.reads <- true;
          if entry.Tables.e_mut <> [] then
            charge_mut ctx sum argroot ~loc ~desc:(n ^ " mutates its argument");
          (match entry.Tables.e_global with
          | Some what ->
              S.add_offense sum ~rule:S.rule_mutation ~loc
                ~desc:(n ^ " mutates ambient state (" ^ what ^ ")")
          | None -> ())
      | None ->
          if is_project ctx.st n then
            (* not yet analyzed this round — a later round repairs this *)
            S.add_offense sum ~rule:S.rule_unknown_call ~loc
              ~desc:("project function " ^ n ^ " used before analysis")
          else begin
            Hashtbl.replace ctx.st.unmodeled n ();
            S.add_offense sum ~rule:S.rule_unknown_call ~loc
              ~desc:("unmodeled external " ^ n ^ " passed as a function argument")
          end)

and charge_external ctx sum ~rty ~loc name (entry : Tables.entry) eargs =
  if entry.Tables.e_reads then sum.S.reads <- true;
  (match entry.Tables.e_global with
  | Some what ->
      S.add_offense sum ~rule:S.rule_mutation ~loc
        ~desc:(name ^ " mutates ambient state (" ^ what ^ ")")
  | None -> ());
  List.iter
    (fun k ->
      match arg_find eargs k with
      | Some a -> charge_mut ctx sum (arg_root a) ~loc ~desc:(name ^ " on argument " ^ k)
      | None -> ())
    entry.Tables.e_mut;
  List.iter
    (fun (fk, datas) ->
      match arg_find eargs fk with
      | None | Some (Aomit _) -> ()
      | Some farg -> (
          let droot =
            S.joins
              (List.filter_map (fun dk -> Option.map arg_root (arg_find eargs dk)) datas)
          in
          match farg with
          | Afun (_, e) -> fold_lambda ctx sum ~param_root:droot e
          | Aval (_, av) -> (
              match av.vfn with
              | Some Inline -> ()
              | Some (Fn n) -> charge_passed_fn ctx sum ~loc n ~argroot:droot
              | Some (Partial (n, stored)) ->
                  charge_partial ctx sum ~loc n stored ~argroot:droot
              | None ->
                  charge_callv ctx sum av.vroot ~loc
                    ~desc:(name ^ " invokes its argument " ^ fk))
          | Aomit _ -> ()))
    entry.Tables.e_calls;
  (* An arrow-typed result is a partial application of the external: keep
     the target so completion re-dispatches against the full argument list. *)
  if (match rty with Some t -> is_arrow t | None -> false) then
    let vroot =
      S.joins
        (List.filter_map (function Aval (_, v) -> Some v.vroot | _ -> None) eargs)
    in
    { vroot; vfn = Some (Partial (name, partial_args eargs)) }
  else
    let vroot =
      match entry.Tables.e_res with
      | Tables.R_fresh -> S.fresh
      | Tables.R_args ks ->
          S.joins (List.filter_map (fun k -> Option.map arg_root (arg_find eargs k)) ks)
      | Tables.R_unknown -> S.unknown ("result of " ^ name)
    in
    { vroot; vfn = None }

(* A spawn site (Fr_util.Pool.map, Domain.spawn) outside the Pool unit
   itself: the job argument is not folded into the caller — it becomes a
   worker root, checked independently by [Check].  The Pool implementation
   is trusted runtime: inside it, calls analyze normally. *)
and handle_spawn ctx sum ~loc fname args =
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | [ (Asttypes.Nolabel, Some fe) ] -> (List.rev acc, Some fe)
    | a :: tl -> split (a :: acc) tl
  in
  let others, fn = split [] args in
  List.iter (fun (_, eo) -> Option.iter (fun a -> ignore (eval ctx sum a)) eo) others;
  (match fn with
  | None ->
      S.add_offense sum ~rule:S.rule_unknown_call ~loc
        ~desc:("partial application of " ^ fname ^ " hides the worker body")
  | Some fe -> (
      let info kind = { rk = kind; r_loc = fe.exp_loc; r_file = ctx.file } in
      let opaque why =
        register_root ctx
          (Printf.sprintf "%s.<worker-opaque:%d>" ctx.prefix (loc_line fe.exp_loc))
          (info (Root_opaque why))
      in
      match fe.exp_desc with
      | Texp_function _ ->
          let name = Printf.sprintf "%s.<worker:%d>" ctx.prefix (loc_line fe.exp_loc) in
          let fsum = analyze_fn ctx ~name ~loc:fe.exp_loc ~shared:false fe in
          replace_summary ctx name fsum;
          register_root ctx name (info (Root_named name))
      | Texp_ident (p, _, _) -> (
          match (resolve_path ctx p).vfn with
          | Some (Fn n) when Hashtbl.mem ctx.st.summaries n ->
              register_root ctx n (info (Root_named n))
          | _ -> opaque "worker is not a known project function")
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, pargs) -> (
          List.iter (fun (_, eo) -> Option.iter (fun a -> ignore (eval ctx sum a)) eo) pargs;
          match (resolve_path ctx p).vfn with
          | Some (Fn n) when Hashtbl.mem ctx.st.summaries n ->
              register_root ctx n (info (Root_named n))
          | _ -> opaque "worker is a partial application of an unknown function")
      | _ -> opaque "unanalyzable worker argument"));
  { vroot = S.fresh; vfn = None }

and replace_summary ctx name sum =
  (match Hashtbl.find_opt ctx.st.summaries name with
  | Some old when S.digest old = S.digest sum -> ()
  | _ ->
      if Sys.getenv_opt "FRDOMCHECK_DEBUG" <> None then begin
        Printf.eprintf "  changed: %s (h=%d)\n%!" name (Hashtbl.hash (S.digest sum));
        if Sys.getenv_opt "FRDOMCHECK_DEBUG_VERBOSE" <> None then begin
          List.iter (fun (o : S.offense) -> Printf.eprintf "    off[%s] %s\n" o.S.rule o.S.odesc) sum.S.offenses;
          List.iter (fun (p, (pr : S.prov)) -> Printf.eprintf "    mutp %s: %s\n" p pr.S.pdesc) sum.S.mutp;
          List.iter (fun (p, (pr : S.prov)) -> Printf.eprintf "    callp %s: %s\n" p pr.S.pdesc) sum.S.callp
        end
      end;
      ctx.st.changed <- true);
  Hashtbl.replace ctx.st.summaries name sum

(* ------------------------------------------------------------------ *)
(* Structures, units and rounds                                        *)
(* ------------------------------------------------------------------ *)

let rec pat_vars : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (sub, id, _) -> id :: pat_vars sub
  | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_variant (_, Some sub, _) | Tpat_lazy sub -> pat_vars sub
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, sub) -> pat_vars sub) fields
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Tpat_value arg -> pat_vars (arg :> value general_pattern)
  | Tpat_exception sub -> pat_vars sub
  | Tpat_any | Tpat_constant _ | Tpat_variant (_, None, _) -> []

let has_worker_attr vb =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "frdomcheck.worker")
    vb.vb_attributes

let rec walk_structure ctx str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (module_binding ctx) vbs
      | Tstr_module mb -> walk_module ctx mb
      | Tstr_recmodule mbs -> List.iter (walk_module ctx) mbs
      | Tstr_eval (e, _) ->
          let name = Printf.sprintf "%s.<init:%d>" ctx.prefix (loc_line e.exp_loc) in
          let sum =
            S.create ~name ~loc:e.exp_loc ~file:ctx.file ~params:[] ~is_fn:false
          in
          ignore (eval ctx sum e);
          replace_summary ctx name sum
      | _ -> ())
    str.str_items

and walk_module ctx mb =
  match mb.mb_id with
  | None -> ()
  | Some id ->
      let sub = { ctx with prefix = ctx.prefix ^ "." ^ Ident.name id } in
      let rec go me =
        match me.mod_desc with
        | Tmod_structure s -> walk_structure sub s
        | Tmod_constraint (inner, _, _, _) -> go inner
        | Tmod_ident _ | Tmod_apply _ | Tmod_functor _ | Tmod_unpack _
        | Tmod_apply_unit _ ->
            ()
      in
      go mb.mb_expr

and module_binding ctx vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) ->
      let qualified =
        match Hashtbl.find_opt ctx.st.bnames (ctx.prefix ^ "/" ^ Ident.unique_name id) with
        | Some n -> n
        | None -> ctx.prefix ^ "." ^ Ident.name id
      in
      if is_syntactic_fn vb.vb_expr then begin
        let sum = analyze_fn ctx ~name:qualified ~loc:vb.vb_loc ~shared:true vb.vb_expr in
        replace_summary ctx qualified sum
      end
      else begin
        let sum =
          S.create ~name:qualified ~loc:vb.vb_loc ~file:ctx.file ~params:[] ~is_fn:false
        in
        let v = eval ctx sum vb.vb_expr in
        sum.S.ret <- v.vroot;
        replace_summary ctx qualified sum;
        match v.vfn with
        | Some (Fn n) when not (Hashtbl.mem ctx.st.val_fns qualified && Hashtbl.find ctx.st.val_fns qualified = n) ->
            Hashtbl.replace ctx.st.val_fns qualified n;
            ctx.st.changed <- true
        | _ -> ()
      end;
      if has_worker_attr vb then
        register_root ctx qualified
          { rk = Root_named qualified; r_loc = vb.vb_loc; r_file = ctx.file }
  | _ ->
      (* pattern bindings at module level: analyze for effects only *)
      let name = Printf.sprintf "%s.<init:%d>" ctx.prefix (loc_line vb.vb_loc) in
      let sum = S.create ~name ~loc:vb.vb_loc ~file:ctx.file ~params:[] ~is_fn:false in
      ignore (eval ctx sum vb.vb_expr);
      replace_summary ctx name sum

(* ------------------------------------------------------------------ *)
(* Sweep A: load a unit — aliases, module-level names, worker attrs    *)
(* ------------------------------------------------------------------ *)

type unit_info = {
  u_prefix : string;
  u_file : string;
  u_aliases : Names.aliases;
  u_menv : (string, vinfo) Hashtbl.t;
  u_str : structure;
}

(* Claim a module-level binding's summary name.  Shadowed bindings (two
   [let voronoi] at the same level) would otherwise share one qualified
   name and flip its summary every round, breaking convergence; the *last*
   binding keeps the plain name (it is what Pdot references from other
   units resolve to) and each earlier one moves to a line-suffixed name,
   with its menv entry rewritten to match. *)
let claim_name st ~claimed ~prefix ~menv ~qualified ~line id =
  (match Hashtbl.find_opt claimed qualified with
  | Some (old_uid, old_line) ->
      let old_name = Printf.sprintf "%s:%d" qualified old_line in
      Hashtbl.replace st.bnames (prefix ^ "/" ^ old_uid) old_name;
      (match Hashtbl.find_opt menv old_uid with
      | Some v ->
          let vroot = if S.is_fresh v.vroot then v.vroot else S.of_global old_name in
          if not (S.is_fresh v.vroot) then Hashtbl.replace st.globals old_name ();
          Hashtbl.replace menv old_uid
            { vroot; vfn = (match v.vfn with Some (Fn _) -> Some (Fn old_name) | f -> f) }
      | None -> ())
  | None -> ());
  Hashtbl.replace claimed qualified (Ident.unique_name id, line);
  Hashtbl.replace st.bnames (prefix ^ "/" ^ Ident.unique_name id) qualified

let rec register_structure st ~prefix ~aliases ~menv ~claimed str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module mb -> register_module st ~prefix ~aliases ~menv ~claimed mb
      | Tstr_recmodule mbs ->
          List.iter (register_module st ~prefix ~aliases ~menv ~claimed) mbs
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) ->
                  let qualified = prefix ^ "." ^ Ident.name id in
                  claim_name st ~claimed ~prefix ~menv ~qualified
                    ~line:(loc_line vb.vb_loc) id;
                  if is_syntactic_fn vb.vb_expr then
                    Hashtbl.replace menv (Ident.unique_name id)
                      { vroot = S.fresh; vfn = Some (Fn qualified) }
                  else begin
                    Hashtbl.replace st.globals qualified ();
                    Hashtbl.replace menv (Ident.unique_name id)
                      { vroot = S.of_global qualified; vfn = Some (Fn qualified) }
                  end
              | p ->
                  List.iter
                    (fun id ->
                      let qualified = prefix ^ "." ^ Ident.name id in
                      Hashtbl.replace st.globals qualified ();
                      Hashtbl.replace menv (Ident.unique_name id)
                        { vroot = S.of_global qualified; vfn = None })
                    (pat_vars vb.vb_pat)
                  |> fun () -> ignore p)
            vbs
      | _ -> ())
    str.str_items

and register_module st ~prefix ~aliases ~menv ~claimed mb =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
      let rec go me =
        match me.mod_desc with
        | Tmod_structure s ->
            register_structure st ~prefix:(prefix ^ "." ^ Ident.name id) ~aliases ~menv
              ~claimed s
        | Tmod_constraint (inner, _, _, _) -> go inner
        | Tmod_ident (p, _) ->
            (* [module G = Fr_graph]: references through G resolve via this
               alias during name normalization *)
            Hashtbl.replace aliases (Ident.name id)
              (String.split_on_char '.' (Names.of_path ~aliases p))
        | Tmod_apply ({ mod_desc = Tmod_ident (p, _); _ }, _, _) ->
            (* [module M = Map.Make (K)]: map M.* onto the functor's name so
               the externals table can model persistent Map/Set operations *)
            Hashtbl.replace aliases (Ident.name id)
              (String.split_on_char '.' (Names.of_path ~aliases p))
        | Tmod_apply _ | Tmod_functor _ | Tmod_unpack _ | Tmod_apply_unit _ -> ()
      in
      go mb.mb_expr)

let load_unit st (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Cmt_format.Implementation str ->
      let prefix = Names.unit_prefix cmt.cmt_modname in
      let file =
        match cmt.cmt_sourcefile with Some f -> f | None -> cmt.cmt_modname
      in
      let aliases : Names.aliases = Hashtbl.create 8 in
      let menv = Hashtbl.create 64 in
      Hashtbl.replace st.units prefix ();
      let claimed = Hashtbl.create 64 in
      register_structure st ~prefix ~aliases ~menv ~claimed str;
      Some { u_prefix = prefix; u_file = file; u_aliases = aliases; u_menv = menv; u_str = str }
  | _ -> None

(* One fixpoint round over every unit.  Summaries are replaced only after a
   binding's walk completes, so recursive and not-yet-visited references see
   last round's result; [st.changed] reports whether anything moved. *)
let analyze_round st units =
  st.changed <- false;
  (* re-collected every round: early rounds misreport not-yet-analyzed
     project functions, the final round's content is what's accurate *)
  Hashtbl.reset st.unmodeled;
  List.iter
    (fun u ->
      let ctx =
        {
          st;
          prefix = u.u_prefix;
          file = u.u_file;
          aliases = u.u_aliases;
          menv = u.u_menv;
          venv = Hashtbl.create 256;
          fresh_env = false;
          outer = [];
        }
      in
      walk_structure ctx u.u_str)
    units
