type tool = {
  tool_name : string;
  similarity : Bcode.t -> Bcode.t -> int -> int -> float;
}

(* A similarity staged over per-function features: applied to the two
   binaries, it extracts each one's features once; the returned scorer
   then compares function [i] of the first with function [j] of the
   second. *)
let pairwise features score a b =
  let fa = features a and fb = features b in
  fun i j -> score fa.(i) fb.(j)

let cosine a b =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i x ->
      dot := !dot +. (x *. b.(i));
      na := !na +. (x *. x);
      nb := !nb +. (b.(i) *. b.(i)))
    a;
  if !na = 0.0 || !nb = 0.0 then 0.0 else !dot /. sqrt (!na *. !nb)

(* ------------------------------------------------------------------ *)
(* Asm2Vec: token-sequence embeddings from CFG random walks            *)
(* ------------------------------------------------------------------ *)

let embed_dim = 128

let hash_token t = Hashtbl.hash t mod embed_dim

(* Rare, source-derived tokens (call targets, data symbols, literal
   constants) discriminate between look-alike functions; mnemonics and
   register names are near-uniform noise.  Real lexical tools learn this
   weighting; we apply it directly. *)
let token_weight t =
  if t = "" then 0.0
  else
    match t.[0] with
    | 'f' when String.length t > 1 && t.[1] >= '0' && t.[1] <= '9' -> 6.0
    | 's' when String.length t > 3 && String.sub t 0 3 = "sym" -> 6.0
    | 'r' | 'v' when String.length t > 1 && t.[1] >= '0' && t.[1] <= '9' ->
      0.25  (* register names: allocation noise *)
    | '0' .. '9' | '-' ->
      (* literal constants: ubiquitous small ones are noise, distinctive
         ones are strong anchors *)
      (try
         let n = int_of_string t in
         if abs n <= 8 then 0.5 else 4.0
       with Failure _ -> 1.0)
    | _ -> 1.0

let asm2vec_embed (c : Bcode.t) =
  Array.map
    (fun (f : Bcode.func) ->
      let v = Array.make embed_dim 0.0 in
      let rng = Util.Rng.create (Hashtbl.hash f.code_bytes) in
      let nblocks = Array.length f.blocks in
      if nblocks > 0 then begin
        (* several random walks through the CFG; token bigrams within
           each walk model the lexical-semantic neighbourhoods the
           PV-DM model of Asm2Vec learns *)
        for _ = 1 to 8 do
          let cur = ref (if f.entry_id >= 0 then f.entry_id else 0) in
          let steps = ref 0 in
          let prev_tok = ref "^" in
          while !steps < 24 do
            incr steps;
            let b = f.blocks.(!cur) in
            List.iter
              (fun insn ->
                let toks = Bcode.tokens_of_insn insn in
                List.iter
                  (fun t ->
                    let w = token_weight t in
                    v.(hash_token t) <- v.(hash_token t) +. w;
                    v.(hash_token (!prev_tok ^ "|" ^ t)) <-
                      v.(hash_token (!prev_tok ^ "|" ^ t)) +. (0.5 *. w);
                    prev_tok := t)
                  toks)
              b.insns;
            match b.succs with
            | [] -> steps := 1000
            | succs -> cur := List.nth succs (Util.Rng.int rng (List.length succs))
          done
        done
      end;
      v)
    c.funcs

let asm2vec = { tool_name = "Asm2Vec"; similarity = pairwise asm2vec_embed cosine }

(* ------------------------------------------------------------------ *)
(* INNEREYE: block embeddings + greedy alignment                       *)
(* ------------------------------------------------------------------ *)

let block_embed (b : Bcode.block) =
  let v = Array.make embed_dim 0.0 in
  List.iter
    (fun insn ->
      List.iter
        (fun t -> v.(hash_token t) <- v.(hash_token t) +. token_weight t)
        (Bcode.tokens_of_insn insn))
    b.insns;
  v

let innereye_embed (c : Bcode.t) =
  Array.map (fun (f : Bcode.func) -> Array.map block_embed f.blocks) c.funcs

(* each block in the smaller function greedily finds its best
   counterpart; similarity = mean best cosine *)
let innereye_score ea eb =
  if Array.length ea = 0 || Array.length eb = 0 then 0.0
  else begin
    let small, large = if Array.length ea <= Array.length eb then (ea, eb) else (eb, ea) in
    let total =
      Array.fold_left
        (fun acc blk ->
          let best =
            Array.fold_left
              (fun best cand -> max best (cosine blk cand))
              0.0 large
          in
          acc +. best)
        0.0 small
    in
    total /. float_of_int (Array.length small)
    *. (float_of_int (Array.length small) /. float_of_int (Array.length large))
  end

let innereye =
  { tool_name = "INNEREYE"; similarity = pairwise innereye_embed innereye_score }

(* ------------------------------------------------------------------ *)
(* VulSeeker: CFG + DFG numeric feature vectors                        *)
(* ------------------------------------------------------------------ *)

let vulseeker_features (c : Bcode.t) =
  Array.map
    (fun (f : Bcode.func) ->
      let counts = Array.make Bcode.n_opcode_classes 0.0 in
      let ninsns = ref 0 in
      Array.iter
        (fun (b : Bcode.block) ->
          List.iter
            (fun insn ->
              incr ninsns;
              let k = Bcode.opcode_class insn in
              counts.(k) <- counts.(k) +. 1.0)
            b.insns)
        f.blocks;
      (* dfg-flavoured features: defs and uses of registers *)
      let defs = ref 0 and imms = ref 0 in
      Array.iter
        (fun (b : Bcode.block) ->
          List.iter
            (fun insn ->
              match insn with
              | Isa.Insn.Imov (_, Isa.Insn.Oimm _) ->
                incr defs;
                incr imms
              | Isa.Insn.Imov _ | Isa.Insn.Ialu _ -> incr defs
              | _ -> ())
            b.insns)
        f.blocks;
      Array.append counts
        [|
          float_of_int (Array.length f.blocks);
          float_of_int (List.length f.edges);
          float_of_int (List.length f.calls);
          float_of_int !ninsns;
          float_of_int !defs;
          float_of_int !imms;
        |])
    c.funcs

(* constant multiset per function: semantic anchors in the DFG *)
let vulseeker_consts (c : Bcode.t) =
  Array.map
    (fun (f : Bcode.func) ->
      let consts = ref [] in
      Array.iter
        (fun (b : Bcode.block) ->
          List.iter
            (fun insn ->
              List.iter
                (fun t ->
                  match int_of_string_opt t with
                  | Some n when abs n > 8 -> consts := n :: !consts
                  | _ -> ())
                (Bcode.tokens_of_insn insn))
            b.insns)
        f.blocks;
      List.sort_uniq compare !consts)
    c.funcs

let vulseeker =
  {
    tool_name = "VulSeeker";
    similarity =
      pairwise
        (fun c -> Array.combine (vulseeker_features c) (vulseeker_consts c))
        (fun (fa, ca) (fb, cb) ->
          let structural = cosine fa fb in
          let consts =
            if ca = [] && cb = [] then 0.5
            else Util.Stats.jaccard compare ca cb
          in
          (0.5 *. structural) +. (0.5 *. consts));
  }

(* ------------------------------------------------------------------ *)
(* BinDiff: 3-level statistical signatures                             *)
(* ------------------------------------------------------------------ *)

(* per function: the statistical signature and the mnemonic histogram *)
let bindiff_features (c : Bcode.t) =
  Array.combine
    (Array.map
       (fun (f : Bcode.func) ->
         let ninsns =
           Array.fold_left
             (fun acc (b : Bcode.block) -> acc + List.length b.insns)
             0 f.blocks
         in
         ( Array.length f.blocks,
           List.length f.edges,
           List.length f.calls,
           ninsns,
           f.calls ))
       c.funcs)
    (vulseeker_features c)

let bindiff_score ((ba, ea, ca, ia, calls_a), hist_a)
    ((bb, eb, cb, ib, calls_b), hist_b) =
  let call_overlap =
    if calls_a = [] && calls_b = [] then 0.5
    else Util.Stats.jaccard compare calls_a calls_b
  in
  let mnem = cosine hist_a hist_b in
  if (ba, ea, ca) = (bb, eb, cb) then
    (* exact structural signature: near-certain match, refined by
       instruction count, call set and mnemonic histogram *)
    1.0
    -. (float_of_int (abs (ia - ib)) /. float_of_int (max 1 (ia + ib)))
    +. call_overlap +. mnem
  else begin
    let rel x y =
      1.0
      -. (float_of_int (abs (x - y)) /. float_of_int (max 1 (max x y)))
    in
    (0.15 *. (rel ba bb +. rel ea eb +. rel ca cb +. rel ia ib))
    +. (0.5 *. call_overlap) +. (0.5 *. mnem)
  end

let bindiff =
  { tool_name = "BinDiff"; similarity = pairwise bindiff_features bindiff_score }

(* ------------------------------------------------------------------ *)
(* BinSlayer: Hungarian matching of block embeddings                   *)
(* ------------------------------------------------------------------ *)

let binslayer =
  {
    tool_name = "BinSlayer";
    similarity =
      pairwise
        (fun c -> Array.combine (innereye_embed c) (bindiff_features c))
        (fun (ea, fa) (eb, fb) ->
          let na = Array.length ea and nb = Array.length eb in
          if na = 0 || nb = 0 then 0.0
          else if na > 60 || nb > 60 then
            (* cap the cubic assignment on giant functions: fall back to
               the statistical score *)
            bindiff_score fa fb
          else begin
            let w =
              Array.init na (fun x -> Array.init nb (fun y -> cosine ea.(x) eb.(y)))
            in
            let pairs = Assignment.solve w in
            let total =
              List.fold_left (fun acc (x, y) -> acc +. w.(x).(y)) 0.0 pairs
            in
            total /. float_of_int (max na nb)
          end);
  }

(* ------------------------------------------------------------------ *)
(* CoP: LCS over semantically equivalent block sequences               *)
(* ------------------------------------------------------------------ *)

let cop_prints (c : Bcode.t) =
  let ret_reg = c.binary.Isa.Binary.ret_reg in
  Array.map
    (fun (f : Bcode.func) ->
      (* canonical linearization in layout order, at the granularity
         of individual output computations so block merging does not
         break the alignment *)
      Array.of_list
        (List.concat_map
           (fun b ->
             Semantics.output_prints (Semantics.summarize ~ret_reg b))
           (Array.to_list f.blocks)))
    c.funcs

let lcs a b =
  let n = Array.length a and m = Array.length b in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      dp.(i).(j) <-
        (if a.(i - 1) = b.(j - 1) then dp.(i - 1).(j - 1) + 1
         else max dp.(i - 1).(j) dp.(i).(j - 1))
    done
  done;
  dp.(n).(m)

let cop =
  {
    tool_name = "CoP";
    similarity =
      pairwise cop_prints (fun pa pb ->
          let n = Array.length pa and m = Array.length pb in
          if n = 0 || m = 0 then 0.0
          else float_of_int (lcs pa pb) /. float_of_int (min n m));
  }

(* ------------------------------------------------------------------ *)
(* Multi-MH: block I/O sampling signatures                             *)
(* ------------------------------------------------------------------ *)

let multimh_sigs (c : Bcode.t) =
  let ret_reg = c.binary.Isa.Binary.ret_reg in
  Array.map
    (fun (f : Bcode.func) ->
      Array.to_list f.blocks
      |> List.concat_map (Semantics.sample_per_output ~ret_reg ~seed:99))
    c.funcs

let multimh =
  {
    tool_name = "Multi-MH";
    similarity =
      pairwise multimh_sigs (fun sa sb ->
          if sa = [] || sb = [] then 0.0 else Util.Stats.jaccard compare sa sb);
  }

(* ------------------------------------------------------------------ *)
(* IMF-SIM: in-memory function fuzzing                                 *)
(* ------------------------------------------------------------------ *)

let imf_nprobes = 6

(* Signature of one function under random-argument probing: the return
   value (or a trap marker) for each probe.  Argument counts are unknown
   at the binary level, so IMF-SIM probes with a fixed-width argument
   frame, exactly like the original's register/stack seeding. *)
let imfsim_sigs (c : Bcode.t) =
  let bin = c.binary in
  Array.mapi
    (fun fid (_ : Bcode.func) ->
      let rng = Util.Rng.create 4242 in
      List.init imf_nprobes (fun _ ->
          let args = List.init 4 (fun _ -> Util.Rng.int rng 64) in
          try
            let r =
              Vm.Machine.run_function ~fuel:60_000 bin ~fid ~args
                ~input:[| 5; 9 |]
            in
            List.fold_left
              (fun acc o ->
                (acc * 1000003)
                + (match o with
                  | Vir.Interp.Out_int n -> n land 0xFFFFFF
                  | Vir.Interp.Out_char c -> c + 7))
              (r.Vm.Machine.return_value land 0xFFFFFF)
              r.Vm.Machine.output
          with
          | Vm.Machine.Trap _ -> -1
          | Vm.Machine.Out_of_fuel -> -2))
    c.funcs

let imfsim =
  {
    tool_name = "IMF-SIM";
    similarity =
      pairwise imfsim_sigs (fun sa sb ->
          let agree =
            List.fold_left2
              (fun acc x y -> if x = y then acc + 1 else acc)
              0 sa sb
          in
          float_of_int agree /. float_of_int imf_nprobes);
  }

let all = [ asm2vec; innereye; vulseeker; bindiff; binslayer; cop; multimh; imfsim ]
