module G = Fr_graph

type heuristic = {
  name : string;
  solve : Fr_graph.Dist_cache.t -> terminals:int list -> Fr_graph.Tree.t;
}

let kmb = { name = "KMB"; solve = Kmb.solve }

let zel () =
  let memo = Zel.create_memo () in
  { name = "ZEL"; solve = (fun cache ~terminals -> Zel.solve ~memo cache ~terminals) }

let improvement_eps = 1e-7

(* How many of the best quick-ranked candidates get a full H evaluation per
   iteration. *)
let verify_top = 16

let default_candidates g terminals =
  let in_net = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace in_net t ()) terminals;
  let acc = ref [] in
  for v = G.Gstate.num_nodes g - 1 downto 0 do
    if G.Gstate.node_enabled g v && not (Hashtbl.mem in_net v) then acc := v :: !acc
  done;
  !acc

let try_cost h cache ~terminals =
  match h.solve cache ~terminals with
  | tree -> G.Tree.cost (G.Dist_cache.graph cache) tree
  | exception Routing_err.Unroutable _ -> infinity

(* Prim over the first [n] rows of [w] with {!Fr_graph.Mst.prim_dense}'s
   pick rule (the first index on a strict [<]), update rule and summation
   order, so the cost is bit-identical to it.  The cost goes to [out.(0)]
   and the largest picked edge ([neg_infinity] if none) to [out.(1)]:
   through a float array, so nothing is boxed and scoring a candidate
   allocates nothing.  The picks, in pick order, go to [picks]. *)
let prim_into w ~n ~best ~in_tree ~picks out =
  if n <= 1 then begin
    out.(0) <- 0.;
    out.(1) <- neg_infinity
  end
  else begin
    Array.fill in_tree 0 n false;
    in_tree.(0) <- true;
    let w0 = w.(0) in
    for j = 1 to n - 1 do
      best.(j) <- w0.(j)
    done;
    let cost = ref 0. and longest = ref neg_infinity in
    for step = 0 to n - 2 do
      let pick = ref (-1) and pick_w = ref infinity in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!pick < 0 || best.(j) < !pick_w) then begin
          pick := j;
          pick_w := best.(j)
        end
      done;
      let j = !pick in
      in_tree.(j) <- true;
      cost := !cost +. !pick_w;
      picks.(step) <- !pick_w;
      if !pick_w > !longest then longest := !pick_w;
      let wj = w.(j) in
      for k = 0 to n - 1 do
        if not in_tree.(k) then begin
          let x = wj.(k) in
          if x < best.(k) then best.(k) <- x
        end
      done
    done;
    out.(0) <- !cost;
    out.(1) <- !longest
  end

(* The members' distance graph, in the first [k] rows and columns of a
   [k+1]-square matrix whose last row and column the scan fills with each
   candidate, and the cost, longest edge and edges, longest first, of the
   members' MST.  The weight between members [i < j] is
   [rows.(i).(members.(j))]. *)
let member_mst ~members ~rows =
  let k = Array.length members in
  let size = k + 1 in
  let w = Array.make_matrix size size 0. in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let d = rows.(i).(members.(j)) in
      w.(i).(j) <- d;
      w.(j).(i) <- d
    done
  done;
  let best = Array.make size infinity and in_tree = Array.make size false in
  let picks = Array.make size 0. in
  let out = Array.make 2 0. in
  prim_into w ~n:k ~best ~in_tree ~picks out;
  let edges = Array.sub picks 0 (Int.max 0 (k - 1)) in
  Array.sort (fun a b -> Float.compare b a) edges;
  (w, best, in_tree, picks, out, edges)

(* The Δ proxy of every candidate: the MST cost of the distance graph over
   the members plus that candidate, kept when it beats the members alone
   by more than [improvement_eps], ranked by cost (stable, so equal costs
   keep candidate order).

   A candidate is skipped without running Prim when a sum bound shows its
   cost fails the filter.  Let [T] be the members' MST (cost [base],
   longest edge L, edges e1 >= e2 >= ...) and [t] a candidate of degree j
   in the MST over the members plus [t].  Removing [t] leaves j
   components, which j-1 edges of [T] reconnect, so
   cost(t) >= base + (t's j links) - (those j-1 edges)
         >= base + (t's j smallest member distances d1 <= ... <= dj)
                 - (e1 + ... + e(j-1)).
   For j = 1 the bound says nothing is gained, so [t] can pass only if
   f(j) = (d1 + ... + dj) - (e1 + ... + e(j-1)) is negative for some
   j >= 2.  Its steps d(j+1) - e(j) never decrease, so the least f(j) is
   where the descent from j = 2 stops: at the first d(j+1) >= e(j), or at
   the members within L running out (every other distance is at least
   L >= e(j)).  The scan tests that one j.

   The test must hold for the rounded sums: a kept candidate's Prim sum
   undercuts [base]'s, two sums of at most k+1 terms each, so its real
   f(j) is below about 2ku*base (u the unit roundoff), and the sums of the
   test round by about ju*(S + B).  Late negotiated prices reach millions
   per edge, where that exceeds [improvement_eps], so the test keeps [t]
   while S < B + 8(k+2)u*(base + S + B), with room to spare.  When the
   second-smallest distance d2 exceeds L the skip needs no margin: every
   link from [t] but the nearest costs more than every base pick, so the
   run over the members plus [t] is the base run with one non-negative
   term inserted, and rounded addition is monotone.

   The same argument bounds what the rows must hold.  A candidate that
   passes has d1 <= L, and every edge of [T] is at most L, so the edges of
   at most L connect the members plus that candidate: every Prim pick is
   at most L, and an entry above L decides no Prim pick, tie or sum.  The
   test reads only entries below L, and d1 + d2 when fewer than two are,
   where an entry above L means d2 > L.  So a row may hold any value above
   L in place of a distance above L — what a search settled below L
   leaves ({!quick_scan}). *)
let rank_candidates ~members ~rows ~candidates =
  let k = Array.length members in
  if not (Int.equal (Array.length rows) k) then
    invalid_arg "Igmst.rank_candidates: one row per member";
  let w, best, in_tree, picks, out, edges = member_mst ~members ~rows in
  let size = k + 1 in
  let base = out.(0) and longest = out.(1) in
  (* [bsum.(m)]: the m longest member-MST edges, summed longest first. *)
  let bsum = Array.make k 0. in
  for m = 1 to k - 1 do
    bsum.(m) <- bsum.(m - 1) +. edges.(m - 1)
  done;
  let margin = 4. *. float_of_int (k + 2) *. epsilon_float in
  (* [near]: the candidate's member distances below L, ascending. *)
  let near = Array.make (Int.max k 1) 0. in
  let passes t =
    let count = ref 0 and d1 = ref infinity and d2 = ref infinity in
    for i = 0 to k - 1 do
      let d = rows.(i).(t) in
      if d < !d1 then begin
        d2 := !d1;
        d1 := d
      end
      else if d < !d2 then d2 := d;
      if d < longest then begin
        let p = ref !count in
        while !p > 0 && near.(!p - 1) > d do
          near.(!p) <- near.(!p - 1);
          decr p
        done;
        near.(!p) <- d;
        incr count
      end
    done;
    let j = ref 2 and s = ref (!d1 +. !d2) in
    if !count >= 2 then begin
      s := near.(0) +. near.(1);
      while !j < !count && near.(!j) < edges.(!j - 1) do
        s := !s +. near.(!j);
        incr j
      done
    end;
    let b = bsum.(!j - 1) in
    !s < b +. (margin *. (base +. !s +. b))
  in
  let rec scan acc = function
    | [] -> List.rev acc
    | t :: rest ->
        if not (passes t) then scan acc rest
        else begin
          for i = 0 to k - 1 do
            let d = rows.(i).(t) in
            w.(i).(k) <- d;
            w.(k).(i) <- d
          done;
          prim_into w ~n:size ~best ~in_tree ~picks out;
          let c = out.(0) in
          if c < base -. improvement_eps then scan ((t, c) :: acc) rest else scan acc rest
        end
  in
  if k < 2 then []
  else List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) (scan [] candidates)

(* Quick Δ proxy: {!rank_candidates} over the members' cached Dijkstra
   arrays, so each candidate costs at most O(k²) float work and no graph
   traversal.  The proxy ranks candidates; the top few are re-evaluated
   with the genuine heuristic so the accepted Steiner node always yields a
   true cost(H) improvement (keeping IGMST's performance guarantee).

   The rows need only be exact up to the members' longest MST edge L
   (see {!rank_candidates}).  The members' MST reads the weight between
   members [i < j] from [i]'s row, as the scan does, through a Prim over
   the member searches that settles each only as far as the MST needs
   ({!Fr_graph.Mst.prim_searches}); every row is then settled below L.
   The cache's searches are plain: a plain frontier settles in distance
   order, so "settled below L" means every entry up to L is exact and
   every other is above it (the router's weights are positive; an entry
   at L reached only over a zero-weight edge could stay above it). *)
let quick_scan cache ~members ~candidates =
  let members = Array.of_list members in
  let searches = Array.map (fun m -> G.Dist_cache.result_for cache ~src:m ~targets:[]) members in
  let _, _, longest =
    G.Mst.prim_searches ~nodes:members ~search:(fun i j -> searches.(Int.min i j))
  in
  Array.iter (fun m -> G.Dist_cache.settle_below cache ~src:m longest) members;
  rank_candidates ~members ~rows:(Array.map (fun r -> r.G.Dijkstra.dist) searches) ~candidates

(* The Fig 5 loop, returning the accepted Steiner set S.

   [batched] enables the paper's batch variant: instead of one acceptance
   per ranking round, every ranked candidate that still yields a true
   cost(H) improvement is accepted within the round (the "non-interference"
   criterion degenerates to re-verifying against the already-grown set,
   which is safe and keeps the monotone-improvement guarantee).  Typical
   instances need <= 3 rounds, matching the paper's observation. *)
let grow ?(batched = false) ?candidates h cache ~terminals =
  let g = G.Dist_cache.graph cache in
  let terminals = List.sort_uniq Int.compare terminals in
  if List.length terminals <= 2 then begin
    (* A single source-sink pair: the shortest path is already optimal, no
       Steiner node can improve it. *)
    let base = try_cost h cache ~terminals in
    if base = infinity then Routing_err.fail ("I" ^ h.name);
    []
  end
  else begin
    let all_candidates =
      match candidates with Some c -> c | None -> default_candidates g terminals
    in
    let in_terms = Hashtbl.create 16 in
    List.iter (fun t -> Hashtbl.replace in_terms t ()) terminals;
    let usable = List.filter (fun t -> not (Hashtbl.mem in_terms t)) all_candidates in
    let in_s = Hashtbl.create 16 in
    let rec iterate s base =
      let members = s @ terminals in
      let remaining = List.filter (fun t -> not (Hashtbl.mem in_s t)) usable in
      let ranked = quick_scan cache ~members ~candidates:remaining in
      if batched then begin
        (* Accept every ranked candidate that still truly improves.  The
           sweep accumulates the Steiner set alone (terminals are appended
           only for the cost evaluation), so nothing needs filtering back
           out afterwards. *)
        let rec sweep sl base n changed = function
          | [] -> (sl, base, changed)
          | _ when n >= verify_top -> (sl, base, changed)
          | (t, _) :: rest ->
              let c = try_cost h cache ~terminals:(t :: sl @ terminals) in
              if c < base -. improvement_eps then begin
                Hashtbl.replace in_s t ();
                sweep (t :: sl) c (n + 1) true rest
              end
              else sweep sl base (n + 1) changed rest
        in
        let s', base', changed = sweep s base 0 false ranked in
        if changed then iterate s' base' else s
      end
      else begin
        let rec verify best n = function
          | [] -> best
          | _ when n >= verify_top -> best
          | (t, _) :: rest ->
              let c = try_cost h cache ~terminals:(t :: members) in
              let best =
                match best with
                | Some (_, bc) when bc <= c -> best
                | _ when c < base -. improvement_eps -> Some (t, c)
                | _ -> best
              in
              verify best (n + 1) rest
        in
        match verify None 0 ranked with
        | None -> s
        | Some (t, c) ->
            Hashtbl.replace in_s t ();
            iterate (t :: s) c
      end
    in
    let base = try_cost h cache ~terminals in
    if base = infinity then Routing_err.fail ("I" ^ h.name);
    iterate [] base
  end

let steiner_nodes ?batched ?candidates h cache ~terminals =
  grow ?batched ?candidates h cache ~terminals

let solve ?batched ?candidates h cache ~terminals =
  let s = grow ?batched ?candidates h cache ~terminals in
  h.solve cache ~terminals:(s @ terminals)

let ikmb ?candidates cache ~terminals = solve ?candidates kmb cache ~terminals
