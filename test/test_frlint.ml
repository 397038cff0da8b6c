(* Tests for tools/frlint: every shipped rule fires on its fixture, both
   suppression mechanisms work, and the real tree is lint-clean. *)

module L = Frlint_lib
module LL = Lintlib

let fixtures_root = "frlint_fixtures"
let fixtures_allowlist = Filename.concat fixtures_root "allowlist"

let run_fixtures () =
  L.Engine.run ~allowlist_path:fixtures_allowlist ~roots:[ fixtures_root ] ()

let finding_pair (f : LL.Finding.t) = (Filename.basename f.LL.Finding.file, f.LL.Finding.rule)

let pairs = Alcotest.(list (pair string string))

(* ------------------------------------------------------------------ *)
(* Rule coverage over the fixture tree                                 *)
(* ------------------------------------------------------------------ *)

let expected_fixture_findings =
  [
    ("bad_error.ml", "error-names-entry-point");
    ("bad_error.ml", "error-names-entry-point");
    ("bad_error.ml", "error-names-entry-point");
    ("global_random.ml", "no-global-mutable-random");
    ("global_random.ml", "no-global-mutable-random");
    ("linear_scan.ml", "no-linear-scan");
    ("linear_scan.ml", "no-linear-scan");
    ("magic.ml", "no-obj-magic");
    ("magic.ml", "no-print-in-lib");
    ("magic.ml", "no-silent-catch-all");
    ("missing_mli.ml", "mli-required");
    ("phys_eq.ml", "no-physical-equality");
    ("phys_eq.ml", "no-physical-equality");
    ("poly_compare.ml", "no-polymorphic-compare");
    ("poly_compare.ml", "no-polymorphic-compare");
    ("poly_compare.ml", "no-polymorphic-compare");
  ]

let test_fixture_findings () =
  let s = run_fixtures () in
  let got = List.map finding_pair s.L.Engine.findings |> List.sort compare in
  Alcotest.check pairs
    "every rule fires exactly where expected" expected_fixture_findings got

let test_every_rule_fires () =
  let s = run_fixtures () in
  let fired = List.map (fun (f : LL.Finding.t) -> f.LL.Finding.rule) s.L.Engine.findings in
  List.iter
    (fun rule -> Alcotest.(check bool) (rule ^ " fires") true (List.mem rule fired))
    [
      "no-linear-scan";
      "no-physical-equality";
      "no-polymorphic-compare";
      "error-names-entry-point";
      "no-obj-magic";
      "no-silent-catch-all";
      "no-print-in-lib";
      "no-global-mutable-random";
      "mli-required";
    ]

let test_suppressions () =
  let s = run_fixtures () in
  (* suppressed.ml's List.mem is silenced by its inline comment *)
  Alcotest.(check int) "two inline suppressions" 2 s.L.Engine.inline_suppressed;
  Alcotest.(check bool)
    "phys_eq.ml's identity test is silenced inline" true
    (List.for_all
       (fun (f : LL.Finding.t) -> not (String.equal f.LL.Finding.rule "no-physical-equality")
         || Filename.basename f.LL.Finding.file <> "phys_eq.ml"
         || f.LL.Finding.line < 12)
    s.L.Engine.findings);
  Alcotest.(check bool)
    "suppressed.ml reports nothing" true
    (List.for_all
       (fun (f : LL.Finding.t) -> Filename.basename f.LL.Finding.file <> "suppressed.ml")
       s.L.Engine.findings);
  (* printy.ml's print_endline is silenced by the fixture allowlist *)
  Alcotest.(check int) "one allowlisted finding" 1 s.L.Engine.allowlisted;
  Alcotest.(check bool)
    "printy.ml reports nothing" true
    (List.for_all
       (fun (f : LL.Finding.t) -> Filename.basename f.LL.Finding.file <> "printy.ml")
       s.L.Engine.findings)

(* ------------------------------------------------------------------ *)
(* Allowlist hygiene                                                   *)
(* ------------------------------------------------------------------ *)

let with_temp_allowlist contents f =
  let path = Filename.temp_file "frlint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allowlist_unused_and_syntax () =
  with_temp_allowlist
    "no-linear-scan lib/nowhere/ghost.ml entry matches nothing\nbroken-line-without-path\n"
    (fun path ->
      let s =
        L.Engine.run ~allowlist_path:path
          ~roots:[ Filename.concat fixtures_root "lib/core/clean.ml" ]
          ()
      in
      let rules =
        List.map (fun (f : LL.Finding.t) -> f.LL.Finding.rule) s.L.Engine.findings
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "stale and malformed entries are findings"
        [ "allowlist-syntax"; "allowlist-unused" ]
        rules)

(* ------------------------------------------------------------------ *)
(* Scope classification                                                *)
(* ------------------------------------------------------------------ *)

let test_scope () =
  let check path ~in_lib ~hot ~print_exempt =
    let s = LL.Scope.classify path in
    Alcotest.(check bool) (path ^ " in_lib") in_lib s.LL.Scope.in_lib;
    Alcotest.(check bool) (path ^ " hot") hot s.LL.Scope.hot;
    Alcotest.(check bool) (path ^ " print_exempt") print_exempt s.LL.Scope.print_exempt
  in
  check "lib/graph/tree.ml" ~in_lib:true ~hot:true ~print_exempt:false;
  check "../../lib/core/pfa.ml" ~in_lib:true ~hot:true ~print_exempt:false;
  check "lib/util/tab.ml" ~in_lib:true ~hot:false ~print_exempt:false;
  check "lib/experiments/table1.ml" ~in_lib:true ~hot:false ~print_exempt:true;
  check "lib/fpga/render.ml" ~in_lib:true ~hot:true ~print_exempt:true;
  check "bin/fpga_route.ml" ~in_lib:false ~hot:false ~print_exempt:false;
  check "frlint_fixtures/lib/graph/x.ml" ~in_lib:true ~hot:true ~print_exempt:false

(* ------------------------------------------------------------------ *)
(* The real tree is lint-clean                                         *)
(* ------------------------------------------------------------------ *)

let test_real_tree_clean () =
  let s =
    L.Engine.run ~allowlist_path:"../tools/frlint/allowlist"
      ~roots:[ "../lib"; "../bin"; "../tools" ] ()
  in
  Alcotest.check pairs
    "no findings on lib/, bin/, tools/" []
    (List.map finding_pair s.L.Engine.findings);
  Alcotest.(check bool) "scanned a real number of files" true (s.L.Engine.files > 80)

let () =
  Alcotest.run "frlint"
    [
      ( "rules",
        [
          Alcotest.test_case "fixture findings" `Quick test_fixture_findings;
          Alcotest.test_case "every rule fires" `Quick test_every_rule_fires;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "inline + allowlist" `Quick test_suppressions;
          Alcotest.test_case "unused/syntax entries" `Quick test_allowlist_unused_and_syntax;
        ] );
      ("scope", [ Alcotest.test_case "classification" `Quick test_scope ]);
      ("project", [ Alcotest.test_case "real tree clean" `Quick test_real_tree_clean ]);
    ]
