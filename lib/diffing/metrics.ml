type ratios = {
  matched_blocks : int;
  blocks_a : int;
  blocks_b : int;
  matched_edges : int;
  edges_a : int;
  edges_b : int;
  matched_funcs : int;
  funcs_a : int;
  funcs_b : int;
  binhunt_score : float;
}

let compute bin_a bin_b =
  let ca = Bcode.analyze bin_a and cb = Bcode.analyze bin_b in
  let d = Binhunt.compare_analyses ca cb in
  let user funcs =
    Array.to_list funcs |> List.filter (fun f -> not f.Bcode.is_library)
  in
  let matched_funcs =
    List.length
      (List.filter
         (fun (i, _, s) -> (not ca.funcs.(i).Bcode.is_library) && s >= 0.5)
         d.matched_functions)
  in
  let ba, bb = d.total_blocks and ea, eb = d.total_edges in
  {
    matched_blocks = d.matched_blocks;
    blocks_a = ba;
    blocks_b = bb;
    matched_edges = d.matched_edges;
    edges_a = ea;
    edges_b = eb;
    matched_funcs;
    funcs_a = List.length (user ca.funcs);
    funcs_b = List.length (user cb.funcs);
    binhunt_score = d.score;
  }

let to_string r =
  Printf.sprintf "(%d/%d, %d/%d, %d/%d)" r.matched_blocks
    (min r.blocks_a r.blocks_b) r.matched_edges
    (min r.edges_a r.edges_b)
    r.matched_funcs
    (min r.funcs_a r.funcs_b)
