type detail = {
  score : float;
  matched_functions : (int * int * float) list;
  matched_blocks : int;
  total_blocks : int * int;
  matched_edges : int;
  total_edges : int * int;
}

(* Per-function analysis: block summaries, whole-block fingerprints, and
   per-output fingerprints (sorted) for partial-credit scoring. *)
type prepared = {
  pfunc : Bcode.func;
  summaries : Semantics.summary array;
  prints : int array;  (** fingerprint per block *)
  outs : int array array;  (** sorted per-output fingerprints per block *)
}

let prepare ~ret_reg (f : Bcode.func) =
  let summaries = Array.map (Semantics.summarize ~ret_reg) f.blocks in
  {
    pfunc = f;
    summaries;
    prints = Array.map Semantics.fingerprint summaries;
    outs =
      Array.map
        (fun s ->
          let l = List.sort compare (Semantics.output_prints s) in
          Array.of_list l)
        summaries;
  }

(* Weighted Dice overlap of two sorted multisets.  [w] maps an output
   fingerprint to its information weight: outputs ubiquitous across the
   binaries (a bare increment, return 0) say nothing about whether two
   blocks stem from the same source, while rare outputs (a multiply by a
   program-specific constant, a store to a particular symbol) are strong
   evidence. *)
let dice ~w a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 && nb = 0 then 1.0
  else begin
    let i = ref 0 and j = ref 0 in
    let common = ref 0.0 and total = ref 0.0 in
    Array.iter (fun p -> total := !total +. w p) a;
    Array.iter (fun p -> total := !total +. w p) b;
    while !i < na && !j < nb do
      let c = compare a.(!i) b.(!j) in
      if c = 0 then begin
        common := !common +. w a.(!i);
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    if !total = 0.0 then 0.0 else 2.0 *. !common /. !total
  end

(* Basic-block matching score.  Fully equivalent blocks follow BinHunt's
   appendix exactly (1.0 same registers, 0.9 otherwise); blocks that
   compute mostly the same canonical outputs — the situation after block
   merging or partial rewriting — receive proportional partial credit,
   standing in for the prover finding a partial input-output
   correspondence. *)
let match_threshold = 0.45

let block_score ~w pa a pb b =
  if Semantics.equivalent pa.summaries.(a) pb.summaries.(b) then
    if Semantics.same_registers pa.summaries.(a) pb.summaries.(b) then 1.0
    else 0.9
  else begin
    let d = dice ~w pa.outs.(a) pb.outs.(b) in
    if d >= match_threshold then 0.9 *. d else 0.0
  end

(* IDF-flavoured weights over a set of prepared functions: weight of a
   fingerprint halves with each extra occurrence beyond the expected two
   (once on each side). *)
let idf_weights (funcs : prepared list) =
  let freq = Hashtbl.create 256 in
  List.iter
    (fun p ->
      Array.iter
        (Array.iter (fun x ->
             Hashtbl.replace freq x
               (1 + try Hashtbl.find freq x with Not_found -> 0)))
        p.outs)
    funcs;
  fun x ->
    let f = try Hashtbl.find freq x with Not_found -> 1 in
    if f <= 2 then 1.0 else 2.0 /. float_of_int f

(* Backtracking CFG matching.  The matching is grown from seed pairs of
   equivalent blocks; for each matched pair we try to pair up equivalent
   unmatched successors, exploring alternatives under a step budget and
   keeping the best (highest-scoring) matching found. *)
let match_cfg ~w pa pb =
  let na = Array.length pa.pfunc.blocks and nb = Array.length pb.pfunc.blocks in
  if na = 0 || nb = 0 then (0.0, [])
  else begin
    let ma = Array.make na (-1) and mb = Array.make nb (-1) in
    let budget = ref 4000 in
    let best_score = ref 0.0 in
    let best_pairs = ref [] in
    let current_score = ref 0.0 in
    let current_pairs = ref [] in
    let record () =
      if !current_score > !best_score then begin
        best_score := !current_score;
        best_pairs := !current_pairs
      end
    in
    let do_match a b s =
      ma.(a) <- b;
      mb.(b) <- a;
      current_score := !current_score +. s;
      current_pairs := (a, b) :: !current_pairs
    in
    let undo_match a b s =
      ma.(a) <- -1;
      mb.(b) <- -1;
      current_score := !current_score -. s;
      current_pairs := List.tl !current_pairs
    in
    (* expand the matching along CFG edges from a queue of matched pairs *)
    let rec expand queue =
      decr budget;
      if !budget <= 0 then record ()
      else
        match queue with
        | [] -> record ()
        | (a, b) :: rest ->
          let sa =
            List.filter (fun s -> ma.(s) < 0) pa.pfunc.blocks.(a).succs
          in
          let sb =
            List.filter (fun s -> mb.(s) < 0) pb.pfunc.blocks.(b).succs
          in
          pair_succs sa sb rest
    (* try to pair each unmatched successor of a with one of b, allowing
       skips; explores alternatives while the budget lasts *)
    and pair_succs sa sb rest =
      match sa with
      | [] -> expand rest
      | x :: sa_rest ->
        let tried = ref false in
        List.iter
          (fun y ->
            if !budget > 0 && ma.(x) < 0 && mb.(y) < 0 then begin
              let s = block_score ~w pa x pb y in
              if s > 0.0 then begin
                tried := true;
                do_match x y s;
                pair_succs sa_rest (List.filter (( <> ) y) sb)
                  ((x, y) :: rest);
                undo_match x y s
              end
            end)
          sb;
        (* also consider leaving x unmatched *)
        if (not !tried) || !budget > 0 then pair_succs sa_rest sb rest
    in
    (* After exploring from a seed, commit the best matching found so the
       next seed extends it (greedy cover of the graphs by matched
       regions, with backtracking inside each region). *)
    let commit () =
      let keep = !best_pairs in
      Array.fill ma 0 na (-1);
      Array.fill mb 0 nb (-1);
      current_pairs := [];
      current_score := 0.0;
      List.iter
        (fun (a, b) ->
          let s = block_score ~w pa a pb b in
          do_match a b s)
        keep
    in
    let try_seed a b =
      if ma.(a) < 0 && mb.(b) < 0 then begin
        let s = block_score ~w pa a pb b in
        if s > 0.0 then begin
          do_match a b s;
          record ();
          expand [ (a, b) ];
          commit ()
        end
      end
    in
    if pa.pfunc.entry_id >= 0 && pb.pfunc.entry_id >= 0 then
      try_seed pa.pfunc.entry_id pb.pfunc.entry_id;
    (* Remaining seeds must carry evidence: each unmatched block of [a]
       may anchor a region at its best-scoring partner, provided the
       block is substantial (trivial rets and empty joins would otherwise
       put a floor under every comparison; they still join matchings by
       CFG expansion). *)
    Array.iteri
      (fun a _ ->
        if ma.(a) < 0 && Array.length pa.outs.(a) >= 2 then begin
          let best = ref (-1) and best_score = ref 0.0 in
          for b = 0 to nb - 1 do
            if mb.(b) < 0 && Array.length pb.outs.(b) >= 2 then begin
              let s = block_score ~w pa a pb b in
              if s > !best_score then begin
                best_score := s;
                best := b
              end
            end
          done;
          if !best >= 0 && !best_score >= 0.8 then try_seed a !best
        end)
      pa.prints;
    record ();
    commit ();
    let pairs = !current_pairs in
    let score = !current_score /. float_of_int (min na nb) in
    (min score 1.0, pairs)
  end

let compare_analyses (ca : Bcode.t) (cb : Bcode.t) =
  let ra = ca.binary.ret_reg and rb = cb.binary.ret_reg in
  let pa = Array.map (prepare ~ret_reg:ra) ca.funcs in
  let pb = Array.map (prepare ~ret_reg:rb) cb.funcs in
  let na = Array.length pa and nb = Array.length pb in
  (* quick fingerprint-overlap filter *)
  let overlap a b =
    let sb = Hashtbl.create 16 in
    Array.iter (fun x -> Hashtbl.replace sb x ()) pb.(b).prints;
    Array.exists (fun x -> Hashtbl.mem sb x) pa.(a).prints
  in
  let w =
    idf_weights (Array.to_list pa @ Array.to_list pb)
  in
  let cfg_cache = Hashtbl.create 64 in
  let cfg a b =
    match Hashtbl.find_opt cfg_cache (a, b) with
    | Some r -> r
    | None ->
      let r =
        if overlap a b then match_cfg ~w pa.(a) pb.(b) else (0.0, [])
      in
      Hashtbl.replace cfg_cache (a, b) r;
      r
  in
  let weights =
    Array.init na (fun i -> Array.init nb (fun j -> fst (cfg i j)))
  in
  let pairs = Assignment.solve weights in
  let matched_functions =
    List.map (fun (i, j) -> (i, j, weights.(i).(j))) pairs
  in
  let cg_score =
    List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 matched_functions
    /. float_of_int (min na nb)
  in
  let matched_blocks =
    List.fold_left
      (fun acc (i, j) -> acc + List.length (snd (cfg i j)))
      0 pairs
  in
  let matched_edges =
    List.fold_left
      (fun acc (i, j) ->
        let _, bpairs = cfg i j in
        let medge =
          List.fold_left
            (fun acc (u, mu) ->
              let succs_u = pa.(i).pfunc.blocks.(u).succs in
              acc
              + List.length
                  (List.filter
                     (fun v ->
                       match List.assoc_opt v bpairs with
                       | Some mv ->
                         List.mem mv pb.(j).pfunc.blocks.(mu).succs
                       | None -> false)
                     succs_u))
            0 bpairs
        in
        acc + medge)
      0 pairs
  in
  let count_blocks funcs =
    Array.fold_left (fun acc p -> acc + Array.length p.pfunc.blocks) 0 funcs
  in
  let count_edges funcs =
    Array.fold_left (fun acc p -> acc + List.length p.pfunc.edges) 0 funcs
  in
  {
    score = max 0.0 (1.0 -. cg_score);
    matched_functions;
    matched_blocks;
    total_blocks = (count_blocks pa, count_blocks pb);
    matched_edges;
    total_edges = (count_edges pa, count_edges pb);
  }

let compare_binaries bin_a bin_b =
  compare_analyses (Bcode.analyze bin_a) (Bcode.analyze bin_b)

let diff_score a b = (compare_binaries a b).score
