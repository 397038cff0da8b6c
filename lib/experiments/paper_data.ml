type table1_row = {
  alg : string;
  wire5 : float;
  path5 : float;
  wire8 : float;
  path8 : float;
}

let row alg wire5 path5 wire8 path8 = { alg; wire5; path5; wire8; path8 }

(* Transcribed from the paper's Table 1. *)
let table1 =
  [
    ( "none",
      1.00,
      [
        row "KMB" 0.00 23.51 0.00 40.30;
        row "ZEL" (-6.22) 11.07 (-7.85) 23.42;
        row "IKMB" (-6.47) 10.83 (-8.19) 24.04;
        row "IZEL" (-6.79) 8.85 (-8.31) 21.47;
        row "DJKA" 29.23 0.00 30.53 0.00;
        row "DOM" 17.51 0.00 18.48 0.00;
        row "PFA" (-5.59) 0.00 (-5.02) 0.00;
        row "IDOM" (-5.59) 0.00 (-4.89) 0.00;
      ] );
    ( "low",
      1.28,
      [
        row "KMB" 0.00 27.61 0.00 47.66;
        row "ZEL" (-4.64) 19.14 (-4.10) 34.17;
        row "IKMB" (-5.68) 17.12 (-4.50) 33.35;
        row "IZEL" (-5.98) 14.56 (-5.52) 22.29;
        row "DJKA" 26.64 0.00 32.48 0.00;
        row "DOM" 22.27 0.00 28.09 0.00;
        row "PFA" 8.95 0.00 13.91 0.00;
        row "IDOM" 8.95 0.00 13.91 0.00;
      ] );
    ( "medium",
      1.55,
      [
        row "KMB" 0.00 30.67 0.00 52.67;
        row "ZEL" (-4.37) 21.54 (-3.35) 44.95;
        row "IKMB" (-5.09) 17.77 (-4.42) 42.42;
        row "IZEL" (-5.57) 15.26 (-4.97) 40.20;
        row "DJKA" 22.94 0.00 36.79 0.00;
        row "DOM" 21.78 0.00 33.89 0.00;
        row "PFA" 13.93 0.00 22.65 0.00;
        row "IDOM" 13.93 0.00 22.59 0.00;
      ] );
  ]

let table1_row ~level ~alg =
  match List.find_opt (fun (l, _, _) -> l = level) table1 with
  | None -> None
  | Some (_, _, rows) -> List.find_opt (fun r -> r.alg = alg) rows

let table5_avg_pfa_wire = 18.2
let table5_avg_idom_wire = 12.8
let table5_avg_pfa_path = -9.5
let table5_avg_idom_path = -10.2
