(* A worker whose whole reachable region is pure arithmetic: frdomcheck
   must report nothing for this unit. *)

let square i = i * i
let drive pool = Fr_util.Pool.map pool ~count:8 (fun i -> square i)
