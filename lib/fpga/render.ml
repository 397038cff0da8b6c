module G = Fr_graph

let digit n =
  if n <= 9 then Char.chr (Char.code '0' + n)
  else if n <= 15 then Char.chr (Char.code 'a' + n - 10)
  else '*'

(* The device drawn as a (2R+1) x (2C+1) cell matrix: even/even cells are
   switch blocks, odd/odd are logic blocks, the rest are channel segments. *)
let occupancy_map rrg =
  let a = rrg.Rrg.arch in
  let r = a.Arch.rows and c = a.Arch.cols in
  let cell seg = digit (Rrg.segment_occupancy rrg seg) in
  let buf = Buffer.create (4 * r * c) in
  for gy = (2 * r) downto 0 do
    for gx = 0 to 2 * c do
      let s =
        if gy mod 2 = 0 && gx mod 2 = 0 then "+"
        else if gy mod 2 = 1 && gx mod 2 = 1 then "[]"
        else if gy mod 2 = 0 then
          (* horizontal channel y = gy/2, segment x = (gx-1)/2 *)
          Printf.sprintf "-%c-" (cell (Rrg.H (gy / 2, (gx - 1) / 2)))
        else
          (* vertical channel x = gx/2, segment y = (gy-1)/2 *)
          Printf.sprintf "%c" (cell (Rrg.V (gx / 2, (gy - 1) / 2)))
      in
      (* pad: switch "+", block "[]", h-seg "-d-", v-seg "d" — align by
         column type: even gx columns are width 1, odd are width 3. *)
      let padded =
        if gx mod 2 = 0 then Printf.sprintf "%-1s" s else Printf.sprintf "%-3s" (if s = "[]" then "[]" else s)
      in
      Buffer.add_string buf padded
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let summary rrg stats =
  let a = rrg.Rrg.arch in
  let par =
    if stats.Router.domains = 1 then ""
    else
      Printf.sprintf "; %d domains (%d batches, %d conflicts)" stats.Router.domains
        stats.Router.par_batches stats.Router.par_conflicts
  in
  let search =
    Printf.sprintf "; %d searches settled %d nodes%s" stats.Router.dijkstra_runs
      stats.Router.settled_nodes
      (if stats.Router.future_cost_evals > 0 then
         Printf.sprintf " (A* %d h-evals)" stats.Router.future_cost_evals
       else "")
  in
  Printf.sprintf
    "%s: %d nets routed in %d pass(es); wirelength %.0f wires; max pathlength sum %.1f; peak \
     channel occupancy %d/%d%s%s"
    (Arch.describe a) (List.length stats.Router.routed) stats.Router.passes
    stats.Router.total_wirelength stats.Router.total_max_path stats.Router.peak_occupancy
    a.Arch.channel_width par search
