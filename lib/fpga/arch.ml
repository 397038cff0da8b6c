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

let make ~name ~series ~rows ~cols ~channel_width ~fs ~fc =
  if rows < 1 || cols < 1 then invalid_arg "Arch.make: non-positive array size";
  if channel_width < 1 then invalid_arg "Arch.make: channel_width < 1";
  { name; series; rows; cols; channel_width; fs; fc; pin_slots = 2 }

let xc3000 ~rows ~cols ~channel_width =
  make ~name:"xc3000" ~series:Series_3000 ~rows ~cols ~channel_width ~fs:6
    ~fc:(int_of_float (ceil (0.6 *. float_of_int channel_width)))

let xc4000 ~rows ~cols ~channel_width =
  make ~name:"xc4000" ~series:Series_4000 ~rows ~cols ~channel_width ~fs:3 ~fc:channel_width

let describe t =
  Printf.sprintf "%s %dx%d W=%d Fs=%d Fc=%d" t.name t.rows t.cols t.channel_width t.fs t.fc
