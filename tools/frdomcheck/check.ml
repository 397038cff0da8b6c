(* The frdomcheck driver: load cmts, run the interprocedural fixpoint,
   judge worker roots, and emit findings plus the effects.json manifest.

   The safety property checked: every function reachable from a worker
   root (a closure handed to Fr_util.Pool.map or Domain.spawn, or a
   function carrying [@frdomcheck.worker]) is at most ReadOnly — it may
   allocate and mutate its own fresh storage, but any write to a global,
   to a spawn-shared argument, or through an unknown-rooted value is a
   finding, as is any call whose effects cannot be bounded.  Escapes go
   through the checked-in allowlist, keyed by qualified function name,
   with mandatory reasons; unused entries are themselves findings. *)

open Lintlib
module S = Summary
module A = Analyze

type report = {
  findings : Finding.t list;
  units : string list;  (* source files of the loaded .cmt units *)
  functions : int;
  roots : int;
  rounds : int;
  allowlisted : int;
  unmodeled : string list;
}

(* ------------------------------------------------------------------ *)
(* cmt discovery                                                       *)
(* ------------------------------------------------------------------ *)

let rec find_files ~suffix acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then find_files ~suffix acc path
          else if Filename.check_suffix name suffix then path :: acc
          else acc)
        acc entries

let read_all ~suffix dirs =
  List.sort compare (List.fold_left (find_files ~suffix) [] dirs)
  |> List.filter_map (fun path ->
         match Cmt_format.read_cmt path with exception _ -> None | cmt -> Some cmt)

(* ------------------------------------------------------------------ *)
(* Worker reachability                                                 *)
(* ------------------------------------------------------------------ *)

(* BFS from one root over summary call edges, recording a parent pointer
   per function so findings can print the full call chain. *)
let reach st root =
  let parents = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace parents root None;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    match Hashtbl.find_opt st.A.summaries name with
    | None -> ()
    | Some sum ->
        List.iter
          (fun (callee, _) ->
            if
              (not (Hashtbl.mem parents callee))
              && Hashtbl.mem st.A.summaries callee
            then begin
              Hashtbl.replace parents callee (Some name);
              Queue.add callee q
            end)
          sum.S.edges
  done;
  parents

let chain parents name =
  let rec up acc n =
    match Hashtbl.find_opt parents n with
    | Some (Some p) -> up (n :: acc) p
    | _ -> n :: acc
  in
  String.concat " -> " (up [] name)

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

let finding_of ~loc ~rule ~message =
  let file = loc.Location.loc_start.Lexing.pos_fname in
  Finding.of_location ~file ~rule ~message loc

let root_kind_name = function
  | A.Root_named _ -> "named"
  | A.Root_opaque _ -> "opaque"

let collect_findings st ~suppressed =
  let out = ref [] in
  let reported = Hashtbl.create 64 in
  let add ~key ~rule ~loc msg =
    if not (suppressed ~rule ~key) then out := finding_of ~loc ~rule ~message:msg :: !out
  in
  let roots = List.sort compare !(st.A.roots) in
  List.iter
    (fun (rname, (info : A.root_info)) ->
      match info.A.rk with
      | A.Root_opaque why ->
          add ~key:rname ~rule:S.rule_unknown_call ~loc:info.A.r_loc
            (Printf.sprintf "worker root %s: %s" rname why)
      | A.Root_named name -> (
          match Hashtbl.find_opt st.A.summaries name with
          | None ->
              add ~key:rname ~rule:S.rule_unknown_call ~loc:info.A.r_loc
                (Printf.sprintf "worker root %s has no analyzed body" name)
          | Some rsum ->
              (* Effects on the root's own parameters: at a spawn site the
                 applied arguments are shared across every domain. *)
              List.iter
                (fun (p, (prov : S.prov)) ->
                  if not (Hashtbl.mem reported (S.rule_mutation, name, p)) then begin
                    Hashtbl.replace reported (S.rule_mutation, name, p) ();
                    add ~key:name ~rule:S.rule_mutation ~loc:prov.S.ploc
                      (Printf.sprintf
                         "worker %s may mutate its argument %s, which is shared across \
                          domains at the spawn site: %s"
                         name p prov.S.pdesc)
                  end)
                rsum.S.mutp;
              List.iter
                (fun (p, (prov : S.prov)) ->
                  if not (Hashtbl.mem reported (S.rule_unknown_call, name, p)) then begin
                    Hashtbl.replace reported (S.rule_unknown_call, name, p) ();
                    add ~key:name ~rule:S.rule_unknown_call ~loc:prov.S.ploc
                      (Printf.sprintf
                         "worker %s may invoke its argument %s, whose effects are \
                          unknown: %s"
                         name p prov.S.pdesc)
                  end)
                rsum.S.callp;
              (* Offenses anywhere in the worker-reachable region. *)
              let parents = reach st name in
              let members =
                Hashtbl.fold (fun f _ acc -> f :: acc) parents [] |> List.sort compare
              in
              List.iter
                (fun f ->
                  match Hashtbl.find_opt st.A.summaries f with
                  | None -> ()
                  | Some fsum ->
                      List.iter
                        (fun (o : S.offense) ->
                          let dk = (o.S.rule, o.S.odesc, f) in
                          if not (Hashtbl.mem reported dk) then begin
                            Hashtbl.replace reported dk ();
                            add ~key:f ~rule:o.S.rule ~loc:o.S.oloc
                              (Printf.sprintf "%s [call chain: %s]" o.S.odesc
                                 (chain parents f))
                          end)
                        fsum.S.offenses)
                members))
    roots;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* effects.json                                                        *)
(* ------------------------------------------------------------------ *)

let manifest st buf =
  let esc = Finding.json_escape in
  let reachable = Hashtbl.create 256 in
  List.iter
    (fun (rname, (info : A.root_info)) ->
      let seed = match info.A.rk with A.Root_named n -> n | A.Root_opaque _ -> rname in
      let parents = reach st seed in
      Hashtbl.iter (fun f _ -> Hashtbl.replace reachable f ()) parents)
    !(st.A.roots);
  Buffer.add_string buf "{\n  \"roots\": [";
  let roots = List.sort compare !(st.A.roots) in
  List.iteri
    (fun i (rname, (info : A.root_info)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"name\": \"%s\", \"kind\": \"%s\", \"file\": \"%s\", \"line\": %d}"
           (esc rname)
           (root_kind_name info.A.rk)
           (esc info.A.r_loc.Location.loc_start.Lexing.pos_fname)
           info.A.r_loc.Location.loc_start.Lexing.pos_lnum))
    roots;
  Buffer.add_string buf "\n  ],\n  \"functions\": [";
  let names =
    Hashtbl.fold (fun n _ acc -> n :: acc) st.A.summaries [] |> List.sort compare
  in
  List.iteri
    (fun i name ->
      let sum = Hashtbl.find st.A.summaries name in
      let cls = S.classify sum in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"file\": \"%s\", \"line\": %d, \"class\": \"%s\", \
            \"worker_reachable\": %b"
           (esc name) (esc sum.S.sfile)
           sum.S.sloc.Location.loc_start.Lexing.pos_lnum
           (S.class_name cls) (Hashtbl.mem reachable name));
      (match cls with
      | S.Mutates sites ->
          Buffer.add_string buf ", \"sites\": [";
          List.iteri
            (fun j (desc, loc) ->
              if j > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "{\"desc\": \"%s\", \"file\": \"%s\", \"line\": %d}"
                   (esc desc)
                   (esc loc.Location.loc_start.Lexing.pos_fname)
                   loc.Location.loc_start.Lexing.pos_lnum))
            sites;
          Buffer.add_char buf ']'
      | S.Pure | S.Read_only -> ());
      Buffer.add_char buf '}')
    names;
  Buffer.add_string buf "\n  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let max_rounds = 50

let run ?allowlist_path ?out_path ~dirs () =
  let st = A.create_state () in
  let units = List.filter_map (A.load_unit st) (read_all ~suffix:".cmt" dirs) in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    if Sys.getenv_opt "FRDOMCHECK_DEBUG" <> None then
      Printf.eprintf "--- round %d\n%!" !rounds;
    A.analyze_round st units;
    if not st.A.changed then continue_ := false
  done;
  let allow, allow_errors =
    match allowlist_path with
    | None -> (None, [])
    | Some path ->
        if Sys.file_exists path then
          let t, errs = Suppress.load path in
          (Some t, errs)
        else (None, [])
  in
  let allowlisted = ref 0 in
  let suppressed ~rule ~key =
    match allow with
    | Some t when Suppress.suppresses_key t ~rule ~key ->
        incr allowlisted;
        true
    | _ -> false
  in
  let findings = collect_findings st ~suppressed in
  let dead =
    Exports.dead ~units ~cmtis:(read_all ~suffix:".cmti" dirs)
    |> List.filter (fun (e : Exports.export) ->
           not (suppressed ~rule:Exports.rule ~key:e.Exports.name))
    |> List.map Exports.finding
  in
  let unused = match allow with Some t -> Suppress.unused_findings t | None -> [] in
  let findings = List.sort Finding.order (allow_errors @ findings @ dead @ unused) in
  (match out_path with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 65536 in
      manifest st buf;
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc);
  {
    findings;
    units = List.map (fun u -> u.A.u_file) units;
    functions = Hashtbl.length st.A.summaries;
    roots = List.length !(st.A.roots);
    rounds = !rounds;
    allowlisted = !allowlisted;
    unmodeled =
      Hashtbl.fold (fun n () acc -> n :: acc) st.A.unmodeled [] |> List.sort compare;
  }
