(** Symmetrical-array FPGA architecture parameters (paper §2, Fig 1).

    An architecture is an R×C array of logic blocks with routing channels
    of [channel_width] tracks between them, switch blocks of flexibility
    [fs] at channel intersections, and connection blocks that let each
    logic-block pin reach [fc] tracks of the adjacent channel.

    The two presets mirror the paper's experimental setups:
    - Xilinx 3000-series (CGE's architecture): [fs = 6],
      [fc = ⌈0.6·W⌉]  (Table 2);
    - Xilinx 4000-series (SEGA/GBP's architecture): [fs = 3], [fc = W]
      (Table 3 — the paper's §5 text says F_s=4 but Table 3's caption and
      the SEGA architecture both use 3; we follow the caption). *)

type series =
  | Series_3000
  | Series_4000

type t = private {
  name : string;
  series : series;
  rows : int;  (** logic-block rows (R) *)
  cols : int;  (** logic-block columns (C) *)
  channel_width : int;  (** W: tracks per channel *)
  fs : int;  (** switch-block flexibility *)
  fc : int;  (** connection-block flexibility, <= W *)
  pin_slots : int;  (** pin nodes per block side (electrically distinct) *)
}

val edge_slots : t -> int
(** The edge slots {!Rrg.build} preallocates: each intersection's 6 side
    pairs times [W] times the tracks per side ({!per_side}), plus [fc] per
    pin.  At most 2{^21} for any [t]: {!xc3000} and {!xc4000} reject a
    larger graph before anything is allocated.  The cap is above six
    times the 340,416 slots of z03 at W=27, a width no table reaches. *)

val per_side : t -> int
(** Target tracks a switch block offers each wire on each other side:
    [⌈fs/3⌉], at least 1. *)

val xc3000 : rows:int -> cols:int -> channel_width:int -> t
(** [fs = 6], [fc = ⌈0.6·W⌉], two pin slots per block side.
    @raise Invalid_argument on non-positive dimensions, or when
    {!edge_slots} would exceed its cap. *)

val xc4000 : rows:int -> cols:int -> channel_width:int -> t
(** [fs = 3], [fc = W], two pin slots per block side.
    @raise Invalid_argument on non-positive dimensions, or when
    {!edge_slots} would exceed its cap. *)

val describe : t -> string
