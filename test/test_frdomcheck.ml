(* Tests for tools/frdomcheck: the fixture workers flag (or stay clean)
   exactly as designed, the seeded race is reported with its full call
   chain, allowlisting by qualified name works, the dead-export rule flags
   exactly the exports no other unit uses, and the real tree is clean
   under the checked-in allowlist. *)

module C = Frdomcheck_lib.Check
module S = Frdomcheck_lib.Summary
module LL = Lintlib

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let fixtures_dir = "frdomcheck_fixtures"
let run_fixtures ?allowlist_path ?out_path () = C.run ?allowlist_path ?out_path ~dirs:[ fixtures_dir ] ()

let about name (f : LL.Finding.t) = contains ~sub:name f.LL.Finding.message

(* ------------------------------------------------------------------ *)
(* Fixture surface: what fires and what stays quiet                    *)
(* ------------------------------------------------------------------ *)

let test_roots () =
  let r = run_fixtures () in
  (* fx_safe and fx_bad spawn lambdas; fx_local and fx_higher are
     attribute-marked.  Nothing else may register. *)
  Alcotest.(check int) "four worker roots" 4 r.C.roots;
  Alcotest.(check bool) "fixpoint converges" true (r.C.rounds < 50)

let test_seeded_race_is_flagged () =
  let r = run_fixtures () in
  let hits = List.filter (about "Fx_bad") r.C.findings in
  Alcotest.(check int) "exactly one finding for the seeded race" 1 (List.length hits);
  let f = List.hd hits in
  Alcotest.(check string) "rule" S.rule_mutation f.LL.Finding.rule;
  Alcotest.(check bool)
    "names the mutated global" true
    (contains ~sub:"Frdom_fixtures.Fx_bad.table" f.LL.Finding.message);
  Alcotest.(check bool)
    "reports the call chain from the spawn site" true
    (contains ~sub:"call chain:" f.LL.Finding.message
    && contains ~sub:"<worker:" f.LL.Finding.message
    && contains ~sub:"Frdom_fixtures.Fx_bad.bump" f.LL.Finding.message)

let test_higher_order_is_conservative () =
  let r = run_fixtures () in
  let hits = List.filter (about "Fx_higher") r.C.findings in
  Alcotest.(check int) "exactly one finding for the opaque callback" 1 (List.length hits);
  let f = List.hd hits in
  Alcotest.(check string) "rule" S.rule_unknown_call f.LL.Finding.rule;
  Alcotest.(check bool)
    "names the worker and the untracked parameter" true
    (contains ~sub:"Frdom_fixtures.Fx_higher.invoke" f.LL.Finding.message
    && contains ~sub:"$0" f.LL.Finding.message)

let test_clean_workers_stay_quiet () =
  let r = run_fixtures () in
  Alcotest.(check int)
    "nothing beyond the two seeded findings" 2 (List.length r.C.findings);
  Alcotest.(check bool)
    "no finding mentions the clean units" true
    (List.for_all
       (fun f -> not (about "Fx_safe" f || about "Fx_local" f))
       r.C.findings)

(* ------------------------------------------------------------------ *)
(* Allowlisting by qualified function name                             *)
(* ------------------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "frdomcheck" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allowlist_discharges () =
  with_temp_file
    "worker-shared-mutation Frdom_fixtures.Fx_bad.bump seeded race fixture\n\
     worker-unknown-call Frdom_fixtures.Fx_higher.invoke opaque callback fixture\n"
    (fun path ->
      let r = run_fixtures ~allowlist_path:path () in
      Alcotest.(check int) "both findings discharged" 0 (List.length r.C.findings);
      Alcotest.(check int) "both entries consumed" 2 r.C.allowlisted)

let test_allowlist_unused_entry_is_a_finding () =
  with_temp_file "worker-shared-mutation Frdom_fixtures.Fx_ghost.run matches nothing\n"
    (fun path ->
      let r = run_fixtures ~allowlist_path:path () in
      Alcotest.(check bool)
        "stale entry reported" true
        (List.exists
           (fun (f : LL.Finding.t) -> String.equal f.LL.Finding.rule "allowlist-unused")
           r.C.findings))

(* ------------------------------------------------------------------ *)
(* Dead exports                                                        *)
(* ------------------------------------------------------------------ *)

let run_exports ?allowlist_path () = C.run ?allowlist_path ~dirs:[ "frdomcheck_exports" ] ()

let dead (r : C.report) =
  List.filter_map
    (fun (f : LL.Finding.t) ->
      if String.equal f.LL.Finding.rule "dead-export" then
        Some (Filename.basename f.LL.Finding.file, f.LL.Finding.line)
      else None)
    r.C.findings

let test_dead_exports_flagged () =
  let r = run_exports () in
  Alcotest.(check (list (pair string int)))
    "the export used only inside its unit and the unused one, at their .mli lines"
    [ ("fx_export.mli", 6); ("fx_export.mli", 9) ]
    (dead r);
  Alcotest.(check bool)
    "named by qualified name" true
    (List.exists (about "Frdom_exports.Fx_export.internal") r.C.findings
    && List.exists (about "Frdom_exports.Fx_export.unused") r.C.findings);
  Alcotest.(check int) "nothing else" 2 (List.length r.C.findings)

let test_dead_export_allowlisted () =
  with_temp_file "dead-export Frdom_exports.Fx_export.unused kept as a fixture hook\n"
    (fun path ->
      let r = run_exports ~allowlist_path:path () in
      Alcotest.(check (list (pair string int))) "only the other one left" [ ("fx_export.mli", 6) ] (dead r);
      Alcotest.(check int) "entry consumed" 1 r.C.allowlisted;
      Alcotest.(check int) "no other finding" 1 (List.length r.C.findings))

let test_dead_export_unused_entry () =
  with_temp_file
    "dead-export Frdom_exports.Fx_export.internal fixture\n\
     dead-export Frdom_exports.Fx_export.unused fixture\n\
     dead-export Frdom_exports.Fx_export.used Fx_user calls it, so this matches nothing\n"
    (fun path ->
      let r = run_exports ~allowlist_path:path () in
      Alcotest.(check (list string))
        "the entry for a live export is the only finding" [ "allowlist-unused" ]
        (List.map (fun (f : LL.Finding.t) -> f.LL.Finding.rule) r.C.findings);
      Alcotest.(check bool)
        "and it names the export" true
        (List.exists (about "Frdom_exports.Fx_export.used") r.C.findings))

(* ------------------------------------------------------------------ *)
(* The effects.json manifest                                           *)
(* ------------------------------------------------------------------ *)

let test_manifest () =
  let path = Filename.temp_file "effects" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (run_fixtures ~out_path:path ());
      let ic = open_in_bin path in
      let json = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("manifest mentions " ^ sub) true (contains ~sub json))
        [
          "\"roots\"";
          "\"functions\"";
          "\"name\": \"Frdom_fixtures.Fx_local.sum_to\"";
          "\"name\": \"Frdom_fixtures.Fx_bad.bump\"";
          "\"class\": \"mutates\"";
          "\"worker_reachable\": true";
        ];
      Alcotest.(check bool)
        "the seeded mutator carries its write sites" true
        (contains ~sub:"\"sites\":" json))

(* ------------------------------------------------------------------ *)
(* The real tree is race-free under the checked-in allowlist           *)
(* ------------------------------------------------------------------ *)

let test_real_tree_clean () =
  let r =
    C.run ~allowlist_path:"../tools/frdomcheck/allowlist"
      ~dirs:[ "../lib"; "../bin"; "../perfbench"; "../examples" ]
      ()
  in
  (* The executables are the dead-export rule's users: without their cmts
     every export only they call would be reported, so the run must have
     loaded them. *)
  List.iter
    (fun unit -> Alcotest.(check bool) (unit ^ " loaded") true (List.mem unit r.C.units))
    [ "bin/fpga_route.ml"; "perfbench/bench.ml"; "examples/quickstart.ml" ];
  Alcotest.(check (list string))
    "no findings on lib/, bin/, perfbench/, examples/" []
    (List.map LL.Finding.to_string r.C.findings);
  Alcotest.(check int) "the router's solve job is the only root" 1 r.C.roots;
  Alcotest.(check bool) "a real number of functions analyzed" true (r.C.functions > 400);
  Alcotest.(check bool) "escapes go through the allowlist" true (r.C.allowlisted > 0);
  Alcotest.(check bool) "fixpoint converges" true (r.C.rounds < 50)

let () =
  Alcotest.run "frdomcheck"
    [
      ( "fixtures",
        [
          Alcotest.test_case "worker roots" `Quick test_roots;
          Alcotest.test_case "seeded race flagged with chain" `Quick
            test_seeded_race_is_flagged;
          Alcotest.test_case "higher-order conservative" `Quick
            test_higher_order_is_conservative;
          Alcotest.test_case "clean workers quiet" `Quick test_clean_workers_stay_quiet;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "discharges by qualified name" `Quick
            test_allowlist_discharges;
          Alcotest.test_case "unused entry is a finding" `Quick
            test_allowlist_unused_entry_is_a_finding;
        ] );
      ( "dead-export",
        [
          Alcotest.test_case "flags exports no other unit uses" `Quick test_dead_exports_flagged;
          Alcotest.test_case "allowlisted by qualified name" `Quick test_dead_export_allowlisted;
          Alcotest.test_case "unused entry is a finding" `Quick test_dead_export_unused_entry;
        ] );
      ("manifest", [ Alcotest.test_case "effects.json" `Quick test_manifest ]);
      ("project", [ Alcotest.test_case "real tree race-free" `Quick test_real_tree_clean ]);
    ]
