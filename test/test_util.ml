(* Unit and property tests for the fr_util substrate. *)

module Rng = Fr_util.Rng
module Stats = Fr_util.Stats
module Tab = Fr_util.Tab

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.of_name "busc" and d = Rng.of_name "busc" in
  Alcotest.(check int) "name-derived determinism" (Rng.int c 1_000_000) (Rng.int d 1_000_000)

let test_rng_sample_distinct () =
  let rng = Rng.make 7 in
  let s = Rng.sample_distinct rng 10 100 in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 100)) s;
  (* Dense case takes the shuffle path. *)
  let s2 = Rng.sample_distinct rng 9 10 in
  Alcotest.(check int) "dense distinct" 9 (List.length (List.sort_uniq compare s2));
  Alcotest.(check (list int)) "k = 0" [] (Rng.sample_distinct rng 0 5);
  Alcotest.(check int) "k = n" 5 (List.length (List.sort_uniq compare (Rng.sample_distinct rng 5 5)));
  (* A k outside [0, n] is a range error naming the entry point; a
     negative one would otherwise spin the rejection loop forever. *)
  List.iter
    (fun (k, n) ->
      match Rng.sample_distinct rng k n with
      | _ -> Alcotest.failf "accepted k=%d n=%d" k n
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            "names its entry point" "Rng.sample_distinct:"
            (String.sub msg 0 (String.length "Rng.sample_distinct:")))
    [ (-3, 100); (-1, 0); (11, 10); (1, 0) ]

let test_stats_basic () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean [])

let test_stats_percent () =
  Alcotest.(check (float 1e-9)) "percent +" 25. (Stats.percent_vs 5. 4.);
  Alcotest.(check (float 1e-9)) "percent -" (-20.) (Stats.percent_vs 4. 5.);
  Alcotest.(check (float 1e-9)) "percent zero ref" 0. (Stats.percent_vs 4. 0.)

let test_tab_render () =
  let t = Tab.create ~title:"T" ~header:[ "name"; "v" ] in
  Tab.add_row t [ "a"; "1" ];
  Tab.add_separator t;
  Tab.add_row t [ "bb" ];
  Tab.add_note t "note";
  let s = Tab.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "row a" true (has "a ");
  Alcotest.(check bool) "note" true (has "note");
  Alcotest.(check bool) "padded short row" true (has "bb")

let test_tab_fmt () =
  Alcotest.(check string) "fmt_signed pos" "+1.50" (Tab.fmt_signed 1.5);
  Alcotest.(check string) "fmt_signed neg" "-1.50" (Tab.fmt_signed (-1.5))

(* Property: sample_distinct always returns k distinct in-range values. *)
let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_distinct distinct and in range" ~count:100
    QCheck.(pair (int_range 0 30) (int_range 30 200))
    (fun (k, n) ->
      let rng = Rng.make (k + (1000 * n)) in
      let s = Rng.sample_distinct rng k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun x -> x >= 0 && x < n) s)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(array_of_size (QCheck.Gen.int_range 0 50) small_int)
    (fun a ->
      let rng = Rng.make (Array.length a) in
      let b = Array.copy a in
      Rng.shuffle rng b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let () =
  Alcotest.run "fr_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "sample_distinct" `Quick test_rng_sample_distinct;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percent" `Quick test_stats_percent;
        ] );
      ( "tab",
        [
          Alcotest.test_case "render" `Quick test_tab_render;
          Alcotest.test_case "fmt" `Quick test_tab_fmt;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sample_distinct;
          QCheck_alcotest.to_alcotest prop_shuffle_permutation;
        ] );
    ]
