module F = Fr_fpga
module R = Router_tables
module Tab = Fr_util.Tab

let tables ~quick =
  let max_passes = if quick then 8 else 20 in
  let nets_per_config = if quick then 10 else 50 in
  (* Quick mode keeps each series' smallest circuits, in table order. *)
  let circuits quick_names specs =
    if quick then List.filter (fun s -> List.mem s.F.Circuits.circuit quick_names) specs
    else specs
  in
  let specs3000 = circuits [ "busc" ] F.Circuits.specs_3000 in
  let rows3 =
    lazy (R.width_rows ~max_passes (circuits [ "term1"; "9symml"; "apex7" ] F.Circuits.specs_4000))
  in
  let rows4 = lazy (R.table4 ~max_passes (Lazy.force rows3)) in
  [
    ("1", fun () -> Tab.to_string (Table1.to_table (Table1.run ~nets_per_config ())));
    ("2", fun () -> Tab.to_string (R.table2_to_table (R.width_rows ~max_passes specs3000)));
    ("3", fun () -> Tab.to_string (R.table3_to_table (Lazy.force rows3)));
    ("4", fun () -> Tab.to_string (R.table4_to_table (Lazy.force rows4)));
    ("5", fun () -> Tab.to_string (R.table5_to_table (R.table5 ~max_passes (Lazy.force rows4))));
    ( "baseline",
      fun () -> Tab.to_string (R.baseline_to_table (R.baseline ~max_passes (Lazy.force rows3))) );
  ]

let figures =
  Figures.
    [
      ("3", fig3);
      ("4", fig4);
      ("6", fig6);
      ("10", fig10);
      ("11", fig11);
      ("13", fig13);
      ("14", fig14);
      ("16", fig16);
    ]
