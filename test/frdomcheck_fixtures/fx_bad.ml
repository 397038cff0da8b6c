(* A worker that reaches a module-level mutation through a helper — the
   deliberate race frdomcheck must flag, naming the full call chain from
   the spawn site down to the offending write. *)

let table : (int, int) Hashtbl.t = Hashtbl.create 16
let bump i = Hashtbl.replace table i (i * i)
let drive pool = ignore (Fr_util.Pool.map pool ~count:4 (fun i -> bump i))
