module F = Fr_fpga
module C = Fr_core
module Tab = Fr_util.Tab

type width_row = {
  spec : F.Circuits.spec;
  measured : int option;
  wirelength : float;
}

let start_width spec =
  (* Begin the search near the published result when available. *)
  let p = spec.F.Circuits.published in
  match (p.F.Circuits.ours_ikmb, p.F.Circuits.cge, p.F.Circuits.sega) with
  | Some w, _, _ | None, Some w, _ | None, None, Some w -> w
  | None, None, None -> 10

let min_width ~config spec =
  let circuit = F.Circuits.generate spec in
  let arch_of_width w = F.Circuits.arch_for spec ~channel_width:w in
  F.Router.min_channel_width ~config ~arch_of_width ~circuit ~start:(start_width spec) ()

let width_rows ~max_passes specs =
  let config = F.Router.config_with ~alg:C.Routing_alg.ikmb ~max_passes () in
  List.map
    (fun spec ->
      match min_width ~config spec with
      | Some (w, stats) ->
          { spec; measured = Some w; wirelength = stats.F.Router.total_wirelength }
      | None -> { spec; measured = None; wirelength = 0. })
    specs

let opt_cell = function Some w -> string_of_int w | None -> "fail"

let ratio_note label total_other total_ours =
  if total_ours > 0 then
    Printf.sprintf "%s requires %.0f%% more channel width than our router." label
      (100. *. ((float_of_int total_other /. float_of_int total_ours) -. 1.))
  else label ^ ": n/a"

let sum_opt get rows =
  List.fold_left
    (fun (acc_other, acc_ours) r ->
      match (get r.spec.F.Circuits.published, r.measured) with
      | Some other, Some ours -> (acc_other + other, acc_ours + ours)
      | _ -> (acc_other, acc_ours))
    (0, 0) rows

let table2_to_table rows =
  let t =
    Tab.create ~title:"Table 2: minimum channel width, Xilinx 3000-series (Fs=6, Fc=ceil(0.6W))"
      ~header:[ "Circuit"; "Size"; "#nets"; "2-3"; "4-10"; ">10"; "CGE"; "Paper"; "Ours" ]
  in
  List.iter
    (fun r ->
      let s = r.spec in
      Tab.add_row t
        [
          s.F.Circuits.circuit;
          Printf.sprintf "%dx%d" s.F.Circuits.rows s.F.Circuits.cols;
          string_of_int (F.Circuits.total_nets s);
          string_of_int s.F.Circuits.nets_small;
          string_of_int s.F.Circuits.nets_medium;
          string_of_int s.F.Circuits.nets_large;
          opt_cell s.F.Circuits.published.F.Circuits.cge;
          opt_cell s.F.Circuits.published.F.Circuits.ours_ikmb;
          opt_cell r.measured;
        ])
    rows;
  let cge_total, ours_total = sum_opt (fun p -> p.F.Circuits.cge) rows in
  Tab.add_note t (ratio_note "CGE" cge_total ours_total);
  Tab.add_note t "Paper reports CGE needing 22% more width than its router; circuits here are synthetic reconstructions.";
  t

let table3_to_table rows =
  let t =
    Tab.create ~title:"Table 3: minimum channel width, Xilinx 4000-series (Fs=3, Fc=W)"
      ~header:[ "Circuit"; "Size"; "#nets"; "2-3"; "4-10"; ">10"; "SEGA"; "GBP"; "Paper"; "Ours" ]
  in
  List.iter
    (fun r ->
      let s = r.spec in
      Tab.add_row t
        [
          s.F.Circuits.circuit;
          Printf.sprintf "%dx%d" s.F.Circuits.rows s.F.Circuits.cols;
          string_of_int (F.Circuits.total_nets s);
          string_of_int s.F.Circuits.nets_small;
          string_of_int s.F.Circuits.nets_medium;
          string_of_int s.F.Circuits.nets_large;
          opt_cell s.F.Circuits.published.F.Circuits.sega;
          opt_cell s.F.Circuits.published.F.Circuits.gbp;
          opt_cell s.F.Circuits.published.F.Circuits.ours_ikmb;
          opt_cell r.measured;
        ])
    rows;
  let sega_total, ours_total = sum_opt (fun p -> p.F.Circuits.sega) rows in
  let gbp_total, _ = sum_opt (fun p -> p.F.Circuits.gbp) rows in
  Tab.add_note t (ratio_note "SEGA" sega_total ours_total);
  Tab.add_note t (ratio_note "GBP" gbp_total ours_total);
  Tab.add_note t "Paper reports SEGA/GBP needing 26%/17% more width than its router.";
  t

type table4_row = {
  spec4 : F.Circuits.spec;
  w_ikmb : int option;
  w_pfa : int option;
  w_idom : int option;
}

let table4 ~max_passes t3_rows =
  List.map
    (fun r ->
      let width_for alg =
        let config = F.Router.config_with ~alg ~max_passes () in
        Option.map fst (min_width ~config r.spec)
      in
      {
        spec4 = r.spec;
        w_ikmb = r.measured;
        w_pfa = width_for C.Routing_alg.pfa;
        w_idom = width_for C.Routing_alg.idom;
      })
    t3_rows

let table4_to_table rows =
  let t =
    Tab.create ~title:"Table 4: minimum channel width by algorithm (4000-series)"
      ~header:
        [ "Circuit"; "SEGA"; "GBP"; "IKMB meas"; "IKMB paper"; "PFA meas"; "PFA paper";
          "IDOM meas"; "IDOM paper" ]
  in
  List.iter
    (fun r ->
      let p = r.spec4.F.Circuits.published in
      Tab.add_row t
        [
          r.spec4.F.Circuits.circuit;
          opt_cell p.F.Circuits.sega;
          opt_cell p.F.Circuits.gbp;
          opt_cell r.w_ikmb;
          opt_cell p.F.Circuits.ours_ikmb;
          opt_cell r.w_pfa;
          opt_cell p.F.Circuits.ours_pfa;
          opt_cell r.w_idom;
          opt_cell p.F.Circuits.ours_idom;
        ])
    rows;
  Tab.add_note t
    "PFA/IDOM minimize pathlength first, so they need somewhat wider channels than IKMB — but no \
     more than SEGA/GBP (paper's observation).";
  t

type table5_row = {
  spec5 : F.Circuits.spec;
  width : int;
  pfa_wire_pct : float;
  idom_wire_pct : float;
  pfa_path_pct : float;
  idom_path_pct : float;
}

let route_at spec alg ~width ~max_passes =
  let config = F.Router.config_with ~alg ~max_passes () in
  let circuit = F.Circuits.generate spec in
  let arch = F.Circuits.arch_for spec ~channel_width:width in
  let rrg = F.Rrg.build arch in
  match F.Router.route ~config rrg circuit with Ok stats -> Some stats | Error _ -> None

type table5 = {
  rows5 : table5_row list;
  left_out : string list;
}

let table5 ~max_passes t4_rows =
  let name alg = alg.C.Routing_alg.name in
  let algs = [ C.Routing_alg.ikmb; C.Routing_alg.pfa; C.Routing_alg.idom ] in
  let outcomes =
    List.map
      (fun r ->
        let circuit = r.spec4.F.Circuits.circuit in
        let widths = [ r.w_ikmb; r.w_pfa; r.w_idom ] in
        match List.filter_map Fun.id widths with
        | [ a; b; c ] -> (
            let width = max a (max b c) in
            let runs = List.map (fun alg -> (alg, route_at r.spec4 alg ~width ~max_passes)) algs in
            match List.map snd runs with
            | [ Some ik; Some pf; Some id ] ->
                let pct f g = Fr_util.Stats.percent_vs f g in
                Ok
                  {
                    spec5 = r.spec4;
                    width;
                    pfa_wire_pct =
                      pct pf.F.Router.total_wirelength ik.F.Router.total_wirelength;
                    idom_wire_pct =
                      pct id.F.Router.total_wirelength ik.F.Router.total_wirelength;
                    pfa_path_pct = pct pf.F.Router.total_max_path ik.F.Router.total_max_path;
                    idom_path_pct = pct id.F.Router.total_max_path ik.F.Router.total_max_path;
                  }
            | _ ->
                let failing =
                  List.filter_map
                    (fun (alg, run) -> if Option.is_none run then Some (name alg) else None)
                    runs
                in
                Error
                  (Printf.sprintf "%s left out: %s unroutable at W=%d, the widest of its Table 4 widths"
                     circuit (String.concat " and " failing) width))
        | _ ->
            let missing =
              List.filter_map
                (fun (alg, w) -> if Option.is_none w then Some (name alg) else None)
                (List.combine algs widths)
            in
            Error
              (Printf.sprintf "%s left out: Table 4 has no width for %s" circuit
                 (String.concat " and " missing)))
      t4_rows
  in
  {
    rows5 = List.filter_map Result.to_option outcomes;
    left_out = List.filter_map (function Error note -> Some note | Ok _ -> None) outcomes;
  }

let table5_to_table { rows5 = rows; left_out } =
  let t =
    Tab.create
      ~title:
        "Table 5: wirelength increase and max-pathlength decrease of PFA/IDOM vs IKMB at equal \
         channel width"
      ~header:
        [ "Circuit"; "W"; "PFA wire%"; "paper"; "IDOM wire%"; "paper"; "PFA path%"; "paper";
          "IDOM path%"; "paper" ]
  in
  let fmt_opt = function Some f -> Tab.fmt_signed f | None -> "-" in
  List.iter
    (fun r ->
      let p = r.spec5.F.Circuits.published in
      Tab.add_row t
        [
          r.spec5.F.Circuits.circuit;
          string_of_int r.width;
          Tab.fmt_signed r.pfa_wire_pct;
          fmt_opt p.F.Circuits.table5_pfa_wire;
          Tab.fmt_signed r.idom_wire_pct;
          fmt_opt p.F.Circuits.table5_idom_wire;
          Tab.fmt_signed r.pfa_path_pct;
          fmt_opt p.F.Circuits.table5_pfa_path;
          Tab.fmt_signed r.idom_path_pct;
          fmt_opt p.F.Circuits.table5_idom_path;
        ])
    rows;
  (if rows <> [] then
     let mean f = Fr_util.Stats.mean (List.map f rows) in
     Tab.add_note t
       (Printf.sprintf
          "Averages (measured): PFA wire %+.1f%%, IDOM wire %+.1f%%, PFA path %+.1f%%, IDOM path \
           %+.1f%%  (paper: %+.1f / %+.1f / %+.1f / %+.1f)"
          (mean (fun r -> r.pfa_wire_pct))
          (mean (fun r -> r.idom_wire_pct))
          (mean (fun r -> r.pfa_path_pct))
          (mean (fun r -> r.idom_path_pct))
          Paper_data.table5_avg_pfa_wire Paper_data.table5_avg_idom_wire
          Paper_data.table5_avg_pfa_path Paper_data.table5_avg_idom_path));
  List.iter (Tab.add_note t) left_out;
  t

type baseline_row = {
  spec_b : F.Circuits.spec;
  w_tree : int option;
  w_twopin : int option;
}

let baseline ~max_passes t3_rows =
  let config =
    { (F.Router.config_with ~max_passes ()) with F.Router.strategy = F.Router.Two_pin_decomposition }
  in
  List.map
    (fun r ->
      { spec_b = r.spec; w_tree = r.measured; w_twopin = Option.map fst (min_width ~config r.spec) })
    t3_rows

let baseline_to_table rows =
  let t =
    Tab.create
      ~title:
        "Baseline: routing multi-pin nets as units (IKMB) vs two-pin decomposition (the \
         CGE/SEGA/GBP strategy)"
      ~header:[ "Circuit"; "IKMB W"; "Two-pin W"; "Two-pin overhead %" ]
  in
  let total_tree = ref 0 and total_twopin = ref 0 in
  List.iter
    (fun r ->
      (match (r.w_tree, r.w_twopin) with
      | Some a, Some b ->
          total_tree := !total_tree + a;
          total_twopin := !total_twopin + b
      | _ -> ());
      let overhead =
        match (r.w_tree, r.w_twopin) with
        | Some a, Some b when a > 0 ->
            Printf.sprintf "%+.0f%%" (100. *. ((float_of_int b /. float_of_int a) -. 1.))
        | _ -> "-"
      in
      Tab.add_row t
        [ r.spec_b.F.Circuits.circuit; opt_cell r.w_tree; opt_cell r.w_twopin; overhead ])
    rows;
  if !total_tree > 0 then
    Tab.add_note t
      (Printf.sprintf
         "Two-pin decomposition needs %.0f%% more channel width overall (paper reports 17-26%% \
          for SEGA/GBP/CGE)."
         (100. *. ((float_of_int !total_twopin /. float_of_int !total_tree) -. 1.)));
  t
