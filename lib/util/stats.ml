let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let percent_vs x reference =
  if reference = 0. then 0. else 100. *. (x -. reference) /. reference
