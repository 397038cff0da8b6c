type kind =
  | Steiner
  | Arborescence

type t = {
  name : string;
  kind : kind;
  solve : ?candidates:int list -> Fr_graph.Dist_cache.t -> net:Net.t -> Fr_graph.Tree.t;
}

let kmb =
  {
    name = "KMB";
    kind = Steiner;
    solve = (fun ?candidates:_ cache ~net -> Kmb.solve cache ~terminals:(Net.terminals net));
  }

let zel =
  {
    name = "ZEL";
    kind = Steiner;
    solve =
      (fun ?candidates cache ~net ->
        Zel.solve ?steiner_candidates:candidates cache ~terminals:(Net.terminals net));
  }

let ikmb =
  {
    name = "IKMB";
    kind = Steiner;
    solve =
      (fun ?candidates cache ~net ->
        Igmst.solve ?candidates Igmst.kmb cache ~terminals:(Net.terminals net));
  }

let izel =
  {
    name = "IZEL";
    kind = Steiner;
    solve =
      (fun ?candidates cache ~net ->
        Igmst.solve ?candidates (Igmst.zel ()) cache ~terminals:(Net.terminals net));
  }

let djka =
  {
    name = "DJKA";
    kind = Arborescence;
    solve = (fun ?candidates:_ cache ~net -> Djka.solve cache ~net);
  }

let dom =
  {
    name = "DOM";
    kind = Arborescence;
    solve = (fun ?candidates:_ cache ~net -> Dom.solve cache ~net);
  }

let pfa =
  {
    name = "PFA";
    kind = Arborescence;
    solve =
      (fun ?candidates cache ~net -> Pfa.solve ?steiner_candidates:candidates cache ~net);
  }

let idom =
  {
    name = "IDOM";
    kind = Arborescence;
    solve = (fun ?candidates cache ~net -> Idom.solve ?candidates cache ~net);
  }

let all = [ kmb; zel; ikmb; izel; djka; dom; pfa; idom ]

let by_name name =
  let up = String.uppercase_ascii name in
  List.find_opt (fun a -> a.name = up) all
