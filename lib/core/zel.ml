module G = Fr_graph

type memo = {
  table : (int * int * int, int * float) Hashtbl.t;
  mutable stamp : int;
}

let create_memo () = { table = Hashtbl.create 256; stamp = -1 }

let refresh_memo memo version =
  if memo.stamp <> version then begin
    Hashtbl.reset memo.table;
    memo.stamp <- version
  end

let sorted_triple a b c =
  let l = List.sort Int.compare [ a; b; c ] in
  match l with [ x; y; z ] -> (x, y, z) | _ -> assert false

(* Best Steiner point for a triple: the v minimizing the sum of
   shortest-path distances to the three terminals (Fig 18's dist_z; the
   figure's "maximizes" is a typo for "minimizes" — the win formula only
   makes sense with the minimum).  With a candidate list the scan — and the
   Dijkstra settling behind it — is bounded to those nodes; otherwise all
   nodes are examined from complete per-terminal results. *)
let steiner_point_of_triple cache ~candidates a b c =
  let g = G.Dist_cache.graph cache in
  let scan, ra, rb, rc =
    match candidates with
    | None ->
        ( None,
          G.Dist_cache.result cache ~src:a,
          G.Dist_cache.result cache ~src:b,
          G.Dist_cache.result cache ~src:c )
    | Some cs ->
        let scan = List.sort_uniq Int.compare cs in
        ( Some scan,
          G.Dist_cache.result_for cache ~src:a ~targets:scan,
          G.Dist_cache.result_for cache ~src:b ~targets:scan,
          G.Dist_cache.result_for cache ~src:c ~targets:scan )
  in
  let best_v = ref (-1) and best_d = ref infinity in
  let consider v =
    if G.Gstate.node_enabled g v then begin
      let d = G.Dijkstra.dist ra v +. G.Dijkstra.dist rb v +. G.Dijkstra.dist rc v in
      if d < !best_d then begin
        best_d := d;
        best_v := v
      end
    end
  in
  (match scan with
  | None ->
      for v = 0 to G.Gstate.num_nodes g - 1 do
        consider v
      done
  | Some vs -> List.iter consider vs);
  (!best_v, !best_d)

let triple_info ?memo cache ~candidates a b c =
  let key = sorted_triple a b c in
  match memo with
  | None -> steiner_point_of_triple cache ~candidates a b c
  | Some m -> (
      refresh_memo m (G.Gstate.version (G.Dist_cache.graph cache));
      match Hashtbl.find_opt m.table key with
      | Some info -> info
      | None ->
          let info = steiner_point_of_triple cache ~candidates a b c in
          Hashtbl.add m.table key info;
          info)

let solve ?memo ?steiner_candidates cache ~terminals =
  let ts = Array.of_list (List.sort_uniq Int.compare terminals) in
  let k = Array.length ts in
  if k <= 2 then Kmb.solve cache ~terminals
  else begin
    (* Distance-graph weight matrix, mutated by contractions. *)
    let w = Array.make_matrix k k 0. in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        let d = G.Dist_cache.dist_sym cache ts.(i) ts.(j) in
        w.(i).(j) <- d;
        w.(j).(i) <- d
      done
    done;
    let mst_cost m =
      snd (G.Mst.prim_dense ~n:k ~weight:(fun i j -> m.(i).(j)))
    in
    let base_mst_cost = mst_cost w in
    if base_mst_cost = infinity then Routing_err.fail "ZEL";
    (* Candidate triples as index triples with their Steiner point. *)
    let triples = ref [] in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        for l = j + 1 to k - 1 do
          let v, d =
            triple_info ?memo cache ~candidates:steiner_candidates ts.(i) ts.(j)
              ts.(l)
          in
          if v >= 0 && d < infinity then triples := (i, j, l, v, d) :: !triples
        done
      done
    done;
    let contracted_cost (i, j, l) =
      (* MST after zeroing two of the triple's three edges; scratch-restore
         the matrix instead of copying it. *)
      let sij = w.(i).(j) and sjl = w.(j).(l) in
      w.(i).(j) <- 0.;
      w.(j).(i) <- 0.;
      w.(j).(l) <- 0.;
      w.(l).(j) <- 0.;
      let c = mst_cost w in
      w.(i).(j) <- sij;
      w.(j).(i) <- sij;
      w.(j).(l) <- sjl;
      w.(l).(j) <- sjl;
      c
    in
    let steiners = ref [] in
    let continue_loop = ref true in
    while !continue_loop do
      let base = mst_cost w in
      let best = ref None and best_win = ref 0. in
      List.iter
        (fun (i, j, l, v, d) ->
          let win = base -. contracted_cost (i, j, l) -. d in
          if win > !best_win +. 1e-12 then begin
            best_win := win;
            best := Some (i, j, l, v)
          end)
        !triples;
      match !best with
      | None -> continue_loop := false
      | Some (i, j, l, v) ->
          w.(i).(j) <- 0.;
          w.(j).(i) <- 0.;
          w.(j).(l) <- 0.;
          w.(l).(j) <- 0.;
          steiners := v :: !steiners
    done;
    Kmb.solve cache ~terminals:(Array.to_list ts @ !steiners)
  end
