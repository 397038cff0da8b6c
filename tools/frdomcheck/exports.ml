(* The dead-export rule.

   Every [val] of every loaded .cmti — nested signatures such as
   [Router.Eco] included — is an export.  An export is live when some
   loaded .cmt outside its own unit names it, either directly or by using
   an enclosing module as a whole (a functor argument, an [include], a
   packed module).  A plain module alias ([module G = Fr_graph],
   [let module R = ... in]) is not a use: it only feeds name
   normalization.  Whatever is loaded is what counts, so the caller's
   directory list decides who the users are; the project passes lib/,
   bin/, perfbench/ and examples/ and never test/. *)

open Typedtree
module A = Analyze

let rule = "dead-export"

type export = {
  name : string;  (* qualified: "Fr_fpga.Router.Eco.create" *)
  owner : string;  (* unit prefix: "Fr_fpga.Router" *)
  loc : Location.t;
}

let rec sig_exports ~owner ~prefix acc (sg : signature) =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> { name = prefix ^ "." ^ vd.val_name.txt; owner; loc = vd.val_loc } :: acc
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          sig_exports ~owner ~prefix:(prefix ^ "." ^ Ident.name id) acc s
      | _ -> acc)
    acc sg.sig_items

let exports_of (cmti : Cmt_format.cmt_infos) =
  match cmti.cmt_annots with
  | Cmt_format.Interface sg ->
      let owner = Names.unit_prefix cmti.cmt_modname in
      sig_exports ~owner ~prefix:owner [] sg
  | _ -> []

(* The names one unit references: values by their full name, modules used
   as a whole by their name with a trailing "." (so the test below is a
   prefix match). *)
let references (u : A.unit_info) =
  let aliases = Hashtbl.copy u.A.u_aliases in
  let refs = Hashtbl.create 256 in
  let add name = Hashtbl.replace refs name () in
  let alias id (me : module_expr) =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.name id)
          (String.split_on_char '.' (Names.of_path ~aliases p));
        true
    | _ -> false
  in
  let super = Tast_iterator.default_iterator in
  let iter =
    {
      super with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> add (Names.of_path ~aliases p)
          | Texp_letmodule (id, _, _, me, body) when alias id me -> sub.expr sub body
          | _ -> super.expr sub e);
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> super.open_declaration sub od);
      module_binding =
        (fun sub mb -> if not (alias mb.mb_id mb.mb_expr) then super.module_binding sub mb);
      module_expr =
        (fun sub me ->
          match me.mod_desc with
          | Tmod_ident (p, _) -> add (Names.of_path ~aliases p ^ ".")
          | _ -> super.module_expr sub me);
    }
  in
  iter.structure iter u.A.u_str;
  refs

let used_by refs (e : export) =
  let rec enclosing_used from =
    match String.index_from_opt e.name from '.' with
    | Some i -> Hashtbl.mem refs (String.sub e.name 0 (i + 1)) || enclosing_used (i + 1)
    | None -> false
  in
  Hashtbl.mem refs e.name || enclosing_used 0

(* The exports no unit outside their owner references. *)
let dead ~units ~cmtis =
  let users = List.map (fun u -> (u.A.u_prefix, references u)) units in
  List.concat_map exports_of cmtis
  |> List.filter (fun e ->
         not
           (List.exists
              (fun (prefix, refs) -> (not (String.equal prefix e.owner)) && used_by refs e)
              users))

let finding (e : export) =
  Lintlib.Finding.of_location ~file:e.loc.Location.loc_start.Lexing.pos_fname ~rule
    ~message:
      (Printf.sprintf
         "%s is exported but nothing outside its own unit uses it (tests do not \
          count): delete it, drop it from the .mli, or allowlist it with a reason"
         e.name)
    e.loc
