(* frdomcheck — typed effect analysis over the build's cmt files, proving
   the parallel router's worker jobs free of shared mutation.

   Usage: frdomcheck [--json] [--allowlist FILE] [--out FILE]
                     [--report-unmodeled] DIR...

   DIRs are searched recursively for .cmt files (point it at _build
   trees, e.g. _build/default/lib).  Exit 0 on a clean tree, 1 when
   there are findings, 2 on usage errors. *)

open Frdomcheck_lib
open Lintlib

let usage () =
  prerr_endline
    "usage: frdomcheck [--json] [--allowlist FILE] [--out FILE] [--report-unmodeled] DIR...";
  exit 2

let () =
  let json = ref false in
  let allowlist = ref None in
  let out = ref None in
  let report_unmodeled = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--allowlist" :: path :: rest ->
        allowlist := Some path;
        parse rest
    | "--out" :: path :: rest ->
        out := Some path;
        parse rest
    | "--report-unmodeled" :: rest ->
        report_unmodeled := true;
        parse rest
    | ("--allowlist" | "--out") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !dirs = [] then usage ();
  let report =
    Check.run ?allowlist_path:!allowlist ?out_path:!out ~dirs:(List.rev !dirs) ()
  in
  if !json then begin
    print_string "[";
    List.iteri
      (fun i f ->
        if i > 0 then print_string ",";
        print_string ("\n  " ^ Finding.to_json f))
      report.Check.findings;
    print_string "\n]\n"
  end
  else begin
    List.iter (fun f -> print_endline (Finding.to_string f)) report.Check.findings;
    if !report_unmodeled && report.Check.unmodeled <> [] then begin
      prerr_endline "unmodeled externals:";
      List.iter (fun n -> prerr_endline ("  " ^ n)) report.Check.unmodeled
    end;
    Printf.printf
      "frdomcheck: %d unit(s), %d function(s), %d worker root(s), %d round(s), %d \
       finding(s), %d allowlisted\n"
      (List.length report.Check.units) report.Check.functions report.Check.roots report.Check.rounds
      (List.length report.Check.findings)
      report.Check.allowlisted
  end;
  exit (if report.Check.findings = [] then 0 else 1)
