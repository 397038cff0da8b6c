let prim_dense ~n ~weight =
  if n <= 1 then ([], 0.)
  else begin
    let in_tree = Array.make n false in
    let best = Array.make n infinity in
    let best_from = Array.make n (-1) in
    let edges = ref [] in
    let cost = ref 0. in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      best.(j) <- weight 0 j;
      best_from.(j) <- 0
    done;
    for _ = 1 to n - 1 do
      let pick = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!pick = -1 || best.(j) < best.(!pick)) then pick := j
      done;
      let j = !pick in
      in_tree.(j) <- true;
      cost := !cost +. best.(j);
      if best_from.(j) >= 0 then edges := (best_from.(j), j) :: !edges;
      for k = 0 to n - 1 do
        if not in_tree.(k) then begin
          let w = weight j k in
          if w < best.(k) then begin
            best.(k) <- w;
            best_from.(k) <- j
          end
        end
      done
    done;
    (!edges, !cost)
  end

(* A pair whose distance is not yet read: tree index [from], and the
   search that reads it, which must reach [target].  It sits in the
   [pending] list of its out-of-tree index until it is read. *)
type pair = {
  from : int;
  search : Dijkstra.result;
  target : int;
  mutable unread : bool;
}

let prim_searches ~nodes ~search =
  let n = Array.length nodes in
  if n <= 1 then ([], 0., neg_infinity)
  else begin
    let in_tree = Array.make n false in
    let rank = Array.make n 0 in
    let best = Array.make n infinity in
    let best_from = Array.make n (-1) in
    let pending = Array.make n [] in
    let open_pair i j =
      let r = search i j in
      let target = if Int.equal r.Dijkstra.src nodes.(i) then nodes.(j) else nodes.(i) in
      pending.(j) <- { from = i; search = r; target; unread = true } :: pending.(j)
    in
    (* [bound.(0)]: how far the current pass settles, in a float array,
       so that the closures below lower it without boxing. *)
    let bound = Array.make 1 infinity in
    (* Settle the pair's search toward its target below [bound.(0)], and
       read the distance if it is now final.  [prim_dense] keeps, at the
       least distance, the tree node that entered first (its update is a
       strict [<] in insertion order). *)
    let advance j p =
      if not (Dijkstra.is_final p.search p.target) then
        Dijkstra.extend_toward p.search ~target:p.target ~below:bound.(0);
      if Dijkstra.is_final p.search p.target then begin
        p.unread <- false;
        let d = p.search.Dijkstra.dist.(p.target) and b = best_from.(j) in
        if d < best.(j) || (Float.equal d best.(j) && (b < 0 || rank.(p.from) < rank.(b)))
        then begin
          best.(j) <- d;
          best_from.(j) <- p.from
        end
      end
    in
    let rec lower_to_tentative = function
      | [] -> ()
      | p :: rest ->
          if p.unread then begin
            let d = p.search.Dijkstra.dist.(p.target) in
            if d < bound.(0) then bound.(0) <- d
          end;
          lower_to_tentative rest
    in
    let rec settle_below j = function
      | [] -> ()
      | p :: rest ->
          if p.unread then begin
            advance j p;
            if best.(j) < bound.(0) then bound.(0) <- best.(j)
          end;
          settle_below j rest
    in
    (* Settle the unread pairs of [i] that could tie the pick [jm]; say
       whether one was read. *)
    let rec settle_ties i jm read = function
      | [] -> read
      | p :: rest ->
          if p.unread && (i < jm || rank.(p.from) < rank.(best_from.(jm))) then begin
            advance i p;
            settle_ties i jm (read || not p.unread) rest
          end
          else settle_ties i jm read rest
    in
    let pick () =
      let p = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!p < 0 || best.(j) < best.(!p)) then p := j
      done;
      !p
    in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      open_pair 0 j
    done;
    let edges = ref [] and cost = ref 0. and longest = ref neg_infinity in
    for step = 1 to n - 1 do
      (* Every unread distance is at least its search's frontier key, and
         the next pick is at most u, the least recorded or tentative
         distance: settle each unread pair's search below u, lowering u as
         pairs are read.  An unread pair is then at least the least
         recorded distance [m]. *)
      bound.(0) <- infinity;
      for j = 0 to n - 1 do
        if not in_tree.(j) then begin
          if best.(j) < bound.(0) then bound.(0) <- best.(j);
          lower_to_tentative pending.(j)
        end
      done;
      for j = 0 to n - 1 do
        if not in_tree.(j) then settle_below j pending.(j)
      done;
      (* An unread pair could still equal [m]: settle through [m] the ones
         that would then move the pick to an earlier index, or its tree
         end to an earlier-entered node, until none is read. *)
      let j = ref (pick ()) and tied = ref true in
      while !tied do
        let jm = !j in
        bound.(0) <- Float.succ best.(jm);
        tied := false;
        for i = 0 to jm do
          if (not in_tree.(i)) && settle_ties i jm false pending.(i) then tied := true
        done;
        j := pick ()
      done;
      let j = !j in
      in_tree.(j) <- true;
      rank.(j) <- step;
      pending.(j) <- [];
      cost := !cost +. best.(j);
      if best.(j) > !longest then longest := best.(j);
      edges := (best_from.(j), j) :: !edges;
      for k = 0 to n - 1 do
        if not in_tree.(k) then open_pair j k
      done
    done;
    (!edges, !cost, !longest)
  end

let kruskal ~nodes ~edges =
  (* Compact arbitrary node ids. *)
  let index = Hashtbl.create 64 in
  let count = ref 0 in
  let intern u =
    match Hashtbl.find_opt index u with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add index u i;
        incr count;
        i
  in
  List.iter (fun u -> ignore (intern u)) nodes;
  List.iter
    (fun (u, v, _, _) ->
      ignore (intern u);
      ignore (intern v))
    edges;
  let n = !count in
  if n <= 1 then ([], 0.)
  else begin
    let sorted =
      List.sort
        (fun (_, _, w1, t1) (_, _, w2, t2) ->
          match Float.compare w1 w2 with 0 -> Int.compare t1 t2 | c -> c)
        edges
    in
    let dsu = Dsu.create n in
    let chosen = ref [] in
    let cost = ref 0. in
    List.iter
      (fun ((u, v, w, _) as e) ->
        let iu = intern u and iv = intern v in
        if iu <> iv && Dsu.union dsu iu iv then begin
          chosen := e :: !chosen;
          cost := !cost +. w
        end)
      sorted;
    let cost = if Dsu.count dsu > 1 then infinity else !cost in
    (List.rev !chosen, cost)
  end
