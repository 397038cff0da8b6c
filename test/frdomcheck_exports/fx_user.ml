(* The other unit: its reference keeps [Fx_export.used] live. *)

let run () = Fx_export.used 3
