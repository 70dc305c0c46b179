open Vir.Ir
module Iset = Cfg_utils.Iset

(* ------------------------------------------------------------------ *)
(* Strength reduction                                                  *)
(* ------------------------------------------------------------------ *)

let is_pow2 c = c > 0 && c land (c - 1) = 0

let log2 c =
  let rec go n acc = if n <= 1 then acc else go (n asr 1) (acc + 1) in
  go c 0

let popcount c =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go c 0

let bit_positions c =
  let rec go n i acc =
    if n = 0 then List.rev acc
    else if n land 1 = 1 then go (n asr 1) (i + 1) (i :: acc)
    else go (n asr 1) (i + 1) acc
  in
  go c 0 []

(* Exact truncating division by 2^k: bias negative dividends before the
   arithmetic shift.  sign = x >> 62 is all-ones for negative x (OCaml
   native ints are 63-bit). *)
let div_pow2_seq f d x k =
  let sign = fresh_reg f in
  let bias = fresh_reg f in
  let sum = fresh_reg f in
  [
    Bin (Shr, sign, x, Imm 62);
    Bin (And, bias, Reg sign, Imm ((1 lsl k) - 1));
    Bin (Add, sum, x, Reg bias);
    Bin (Shr, d, Reg sum, Imm k);
  ]

let reduce_instr f i =
  match i with
  | Bin (Mul, d, x, Imm c) | Bin (Mul, d, Imm c, x) ->
    if c = 0 then Some [ Mov (d, Imm 0) ]
    else if c = 1 then Some [ Mov (d, x) ]
    else if is_pow2 c then Some [ Bin (Shl, d, x, Imm (log2 c)) ]
    else if c > 2 && is_pow2 (c + 1) then begin
      (* c = 2^k - 1:  d = (x << k) - x *)
      let t = fresh_reg f in
      Some [ Bin (Shl, t, x, Imm (log2 (c + 1))); Bin (Sub, d, Reg t, x) ]
    end
    else if c > 0 && popcount c = 2 then begin
      match bit_positions c with
      | [ a; b ] ->
        let ta = fresh_reg f and tb = fresh_reg f in
        let shift_or_copy t k =
          if k = 0 then Mov (t, x) else Bin (Shl, t, x, Imm k)
        in
        Some [ shift_or_copy ta a; shift_or_copy tb b; Bin (Add, d, Reg ta, Reg tb) ]
      | _ -> None
    end
    else None
  | Bin (Div, d, x, Imm c) ->
    if c = 1 then Some [ Mov (d, x) ]
    else if is_pow2 c then Some (div_pow2_seq f d x (log2 c))
    else None
  | Bin (Mod, d, x, Imm c) ->
    if c = 1 then Some [ Mov (d, Imm 0) ]
    else if is_pow2 c then begin
      (* r = x - (x / c) * c *)
      let q = fresh_reg f in
      let scaled = fresh_reg f in
      Some
        (div_pow2_seq f q x (log2 c)
        @ [ Bin (Shl, scaled, Reg q, Imm (log2 c)); Bin (Sub, d, x, Reg scaled) ])
    end
    else None
  | _ -> None

let strength_reduce f =
  List.iter
    (fun b ->
      b.instrs <-
        List.concat_map
          (fun i ->
            match reduce_instr f i with Some seq -> seq | None -> [ i ])
          b.instrs)
    f.blocks

(* ------------------------------------------------------------------ *)
(* If-conversion (cmov)                                                *)
(* ------------------------------------------------------------------ *)

(* An arm is convertible when it is short, branch-free, and side-effect
   free so it can be executed speculatively.  Loads are excluded: a
   speculated load could fault where the original program would not. *)
let speculable_arm limit blk =
  List.length blk.instrs <= limit
  && List.for_all
       (function
         | Bin _ | Un _ | Mov _ | Select _ -> true
         | Load _ | Store _ | Slot_load _ | Slot_store _ | Call _ | Vload _
         | Vstore _ | Vbin _ | Vsplat _ | Vpack _ | Vreduce _ | Print_int _
         | Print_char _ | Read_input _ | Input_len _ ->
           false)
       blk.instrs

(* Rename the registers an arm defines so both arms can run before the
   select.  Returns the rewritten instructions and the final mapping from
   original destination register to its renamed stand-in. *)
let rename_arm f blk =
  let env = Hashtbl.create 8 in
  let map_use o =
    match o with
    | Imm _ -> o
    | Reg r -> (
      match Hashtbl.find_opt env r with Some r' -> Reg r' | None -> o)
  in
  let def d =
    let d' = fresh_reg f in
    Hashtbl.replace env d d';
    d'
  in
  let instrs =
    List.map
      (fun i ->
        match i with
        | Bin (op, d, a, b) ->
          let a = map_use a and b = map_use b in
          Bin (op, def d, a, b)
        | Un (op, d, a) ->
          let a = map_use a in
          Un (op, def d, a)
        | Mov (d, a) ->
          let a = map_use a in
          Mov (def d, a)
        | Select (d, c, x, y) ->
          let c = map_use c and x = map_use x and y = map_use y in
          Select (def d, c, x, y)
        | _ -> assert false)
      blk.instrs
  in
  (instrs, env)

let if_convert f =
  let changed = ref false in
  let limit = 6 in
  let convert () =
    let preds = predecessors f in
    let by_label = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace by_label b.label b) f.blocks;
    let single_pred l =
      match Hashtbl.find_opt preds l with Some [ _ ] -> true | _ -> false
    in
    let arm_of l =
      match Hashtbl.find_opt by_label l with
      | Some blk when single_pred l && speculable_arm limit blk -> (
        match blk.term with Jmp j -> Some (blk, j) | _ -> None)
      | Some _ | None -> None
    in
    let any = ref false in
    List.iter
      (fun b ->
        if not !any then
          match b.term with
          | Br (c, t, e) when t <> e -> (
            let emit_selects cond arms join =
              (* arms: [(instrs, env, taken_when_cond_true)] *)
              let all_instrs =
                List.concat_map (fun (is, _, _) -> is) arms
              in
              let dests =
                List.sort_uniq compare
                  (List.concat_map
                     (fun (_, env, _) ->
                       Hashtbl.fold (fun d _ acc -> d :: acc) env [])
                     arms)
              in
              let lookup pick_true d =
                let rec find = function
                  | [] -> Reg d
                  | (_, env, when_true) :: rest ->
                    if when_true = pick_true then
                      match Hashtbl.find_opt env d with
                      | Some d' -> Reg d'
                      | None -> find rest
                    else find rest
                in
                find arms
              in
              let selects =
                List.map
                  (fun d -> Select (d, cond, lookup true d, lookup false d))
                  dests
              in
              b.instrs <- b.instrs @ all_instrs @ selects;
              b.term <- Jmp join;
              changed := true;
              any := true
            in
            match (arm_of t, arm_of e) with
            | Some (tb, jt), Some (eb, je) when jt = je && jt <> t && jt <> e
              ->
              (* diamond *)
              let ti, tenv = rename_arm f tb in
              let ei, eenv = rename_arm f eb in
              emit_selects c [ (ti, tenv, true); (ei, eenv, false) ] jt
            | Some (tb, jt), None when jt = e ->
              (* triangle: then-arm falls into the else target *)
              let ti, tenv = rename_arm f tb in
              emit_selects c [ (ti, tenv, true) ] e
            | None, Some (eb, je) when je = t ->
              let ei, eenv = rename_arm f eb in
              emit_selects c [ (ei, eenv, false) ] t
            | _ -> ())
          | _ -> ())
      f.blocks;
    !any
  in
  (* convert one site at a time so predecessor info stays fresh *)
  let rec loop n = if n > 0 && convert () then loop (n - 1) in
  loop 64;
  if !changed then begin
    Cleanup.simplify_cfg f;
    Cleanup.lvn f;
    Cleanup.dce f
  end

(* ------------------------------------------------------------------ *)
(* Loop-invariant code motion                                          *)
(* ------------------------------------------------------------------ *)

let licm f =
  (* Process loops outermost-first: a preheader created for an inner loop
     sits inside its enclosing loops but is not part of their (precomputed)
     body sets, so definitions moved there would wrongly look invariant to
     an outer loop processed later. *)
  let loops = List.rev (Cfg_utils.natural_loops f) in
  (* count definitions of each register across the whole function *)
  let def_count = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match instr_def i with
          | Some d ->
            Hashtbl.replace def_count d
              (1 + try Hashtbl.find def_count d with Not_found -> 0)
          | None -> ())
        b.instrs)
    f.blocks;
  List.iter
    (fun (l : Cfg_utils.loop) ->
      let loop_blocks =
        List.filter (fun b -> Iset.mem b.label l.body) f.blocks
      in
      let defined_in_loop = Cfg_utils.loop_defs f l in
      (* A hoistable instruction: pure computation, defined exactly once
         in the function, every register operand defined outside the loop
         (one round; chains of invariant computations hoist across
         repeated pipeline applications). *)
      let is_hoistable i =
        match i with
        | Bin (_, d, a, b2) ->
          Hashtbl.find_opt def_count d = Some 1
          && List.for_all
               (fun o ->
                 match o with
                 | Imm _ -> true
                 | Reg r -> not (Hashtbl.mem defined_in_loop r))
               [ a; b2 ]
        | Un (_, d, a) | Mov (d, a) ->
          Hashtbl.find_opt def_count d = Some 1
          && (match a with
             | Imm _ -> true
             | Reg r -> not (Hashtbl.mem defined_in_loop r))
        | Select _ | Load _ | Store _ | Slot_load _ | Slot_store _ | Call _
        | Vload _ | Vstore _ | Vbin _ | Vsplat _ | Vpack _ | Vreduce _
        | Print_int _ | Print_char _ | Read_input _ | Input_len _ ->
          false
      in
      let hoisted = ref [] in
      List.iter
        (fun b ->
          let keep, out =
            List.partition (fun i -> not (is_hoistable i)) b.instrs
          in
          if out <> [] then begin
            b.instrs <- keep;
            hoisted := !hoisted @ out
          end)
        loop_blocks;
      if !hoisted <> [] then Cfg_utils.insert_preheader f l !hoisted)
    loops

(* ------------------------------------------------------------------ *)
(* Tail-call optimization                                              *)
(* ------------------------------------------------------------------ *)

let tail_call f =
  List.iter
    (fun b ->
      match b.term with
      | Ret (Some (Reg r)) -> (
        match List.rev b.instrs with
        | Call (Some r', callee, args) :: rest when r' = r ->
          b.instrs <- List.rev rest;
          b.term <- Tail_call (callee, args)
        | _ -> ())
      | _ -> ())
    f.blocks

(* ------------------------------------------------------------------ *)
(* Branch on count register                                            *)
(* ------------------------------------------------------------------ *)

let branch_count_reg f =
  (* how many times is register r read anywhere in the function? *)
  let use_count r =
    List.fold_left
      (fun acc b ->
        let acc =
          List.fold_left
            (fun acc i ->
              acc + List.length (List.filter (( = ) r) (instr_uses i)))
            acc b.instrs
        in
        acc + List.length (List.filter (( = ) r) (term_uses b.term)))
      0 f.blocks
  in
  List.iter
    (fun b ->
      match b.term with
      | Br (Reg n, t, e) -> (
        match List.rev b.instrs with
        (* n = n - 1; br n  →  loop n *)
        | Bin (Sub, n', Reg n'', Imm 1) :: rest when n' = n && n'' = n ->
          b.instrs <- List.rev rest;
          b.term <- Loop_branch (n, t, e)
        (* t = n - 1; n = t; br t  →  loop n   (when t is otherwise dead) *)
        | Mov (n', Reg t') :: Bin (Sub, t'', Reg n'', Imm 1) :: rest
          when t' = n && t'' = n && n'' = n' && use_count n = 2 ->
          b.instrs <- List.rev rest;
          b.term <- Loop_branch (n', t, e)
        | _ -> ())
      | _ -> ())
    f.blocks

(* ------------------------------------------------------------------ *)
(* SLP vectorization of adjacent constant-index stores                 *)
(* ------------------------------------------------------------------ *)

let slp_vectorize f =
  let rewrite instrs =
    let rec go acc = function
      | Store (g1, Imm k1, v1)
        :: Store (g2, Imm k2, v2)
        :: Store (g3, Imm k3, v3)
        :: Store (g4, Imm k4, v4)
        :: rest
        when g1 = g2 && g2 = g3 && g3 = g4 && k2 = k1 + 1 && k3 = k1 + 2
             && k4 = k1 + 3
             && List.for_all
                  (function Imm _ -> true | Reg _ -> false)
                  [ v1; v2; v3; v4 ] ->
        let v = fresh_vreg f in
        go
          (Vstore (g1, Imm k1, v) :: Vpack (v, [ v1; v2; v3; v4 ]) :: acc)
          rest
      | i :: rest -> go (i :: acc) rest
      | [] -> List.rev acc
    in
    go [] instrs
  in
  List.iter (fun b -> b.instrs <- rewrite b.instrs) f.blocks

(* ------------------------------------------------------------------ *)
(* Layout passes                                                       *)
(* ------------------------------------------------------------------ *)

let order_by f labels =
  let by_label = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_label b.label b) f.blocks;
  let picked = List.filter_map (Hashtbl.find_opt by_label) labels in
  let rest =
    List.filter (fun b -> not (List.mem b.label labels)) f.blocks
  in
  f.blocks <- picked @ rest

let reorder_blocks f = order_by f (Cfg_utils.block_order_dfs f)

let partition_blocks f =
  reorder_blocks f;
  let loops = Cfg_utils.natural_loops f in
  let hot =
    List.fold_left
      (fun acc { Cfg_utils.body; _ } -> Iset.union acc body)
      Iset.empty loops
  in
  match f.blocks with
  | entry :: rest ->
    let hot_blocks, cold_blocks =
      List.partition (fun b -> Iset.mem b.label hot) rest
    in
    f.blocks <- (entry :: hot_blocks) @ cold_blocks
  | [] -> ()

let reorder_functions p =
  let call_count = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Call (_, callee, _) ->
                Hashtbl.replace call_count callee
                  (1 + try Hashtbl.find call_count callee with Not_found -> 0)
              | _ -> ())
            b.instrs;
          match b.term with
          | Tail_call (callee, _) ->
            Hashtbl.replace call_count callee
              (1 + try Hashtbl.find call_count callee with Not_found -> 0)
          | _ -> ())
        f.blocks)
    p.funcs;
  let count f =
    match Hashtbl.find_opt call_count f.fname with Some n -> n | None -> 0
  in
  p.funcs <-
    List.stable_sort (fun a b -> compare (count b) (count a)) p.funcs
