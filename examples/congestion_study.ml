(* A compact version of the paper's Table 1 congestion study.

   Routes a batch of random nets on congested 20x20 grids at the paper's
   three congestion levels and prints the measured wirelength / pathlength
   table next to the published numbers (`fpga_route table 1` runs the
   full 50-net version).

   Run with: dune exec examples/congestion_study.exe *)

let () =
  let sections = Fr_exp.Table1.run ~nets_per_config:12 ~seed:11 () in
  Fr_util.Tab.print (Fr_exp.Table1.to_table sections);
  print_endline
    "(12 nets per configuration for speed; `fpga_route table 1` runs the paper's 50.)"
