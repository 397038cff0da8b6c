type series =
  | Series_3000
  | Series_4000

type t = {
  name : string;
  series : series;
  rows : int;
  cols : int;
  channel_width : int;
  fs : int;
  fc : int;
  pin_slots : int;
}

let max_edge_slots = 1 lsl 21

(* Saturating arithmetic on non-negative ints: a result that would
   overflow reads [max_int], which is above any cap. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let product = List.fold_left sat_mul 1

let per_side t = max 1 ((t.fs + 2) / 3)

(* Every intersection joins at most 4 sides (6 pairs) with [W * per_side]
   edges each, and every pin fans out to [fc] tracks. *)
let edge_slots t =
  sat_add
    (product [ sat_add t.rows 1; sat_add t.cols 1; 6; t.channel_width; per_side t ])
    (product [ t.rows; t.cols; 4; t.pin_slots; t.fc ])

let make ~name ~series ~rows ~cols ~channel_width ~fs ~fc =
  if rows < 1 || cols < 1 then invalid_arg "Arch.make: non-positive array size";
  if channel_width < 1 then invalid_arg "Arch.make: channel_width < 1";
  let t = { name; series; rows; cols; channel_width; fs; fc; pin_slots = 2 } in
  if edge_slots t > max_edge_slots then
    invalid_arg
      (Printf.sprintf "Arch.make: a %dx%d array at W=%d needs a routing graph above %d edge slots"
         rows cols channel_width max_edge_slots);
  t

let xc3000 ~rows ~cols ~channel_width =
  make ~name:"xc3000" ~series:Series_3000 ~rows ~cols ~channel_width ~fs:6
    ~fc:(int_of_float (ceil (0.6 *. float_of_int channel_width)))

let xc4000 ~rows ~cols ~channel_width =
  make ~name:"xc4000" ~series:Series_4000 ~rows ~cols ~channel_width ~fs:3 ~fc:channel_width

let describe t =
  Printf.sprintf "%s %dx%d W=%d Fs=%d Fc=%d" t.name t.rows t.cols t.channel_width t.fs t.fc
