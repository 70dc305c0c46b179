open Vir.Ir
module Iset = Cfg_utils.Iset
module Bits = Analysis.Dataflow.Bits

(* ------------------------------------------------------------------ *)
(* simplify_cfg                                                        *)
(* ------------------------------------------------------------------ *)

let remove_unreachable f =
  let reach = Cfg_utils.reachable f in
  f.blocks <- List.filter (fun b -> Iset.mem b.label reach) f.blocks

(* Fold trivial branches: constant condition, equal targets. *)
let fold_branches f =
  List.iter
    (fun b ->
      match b.term with
      | Br (Imm c, t, e) -> b.term <- Jmp (if c <> 0 then t else e)
      | Br (c, t, e) when t = e ->
        ignore c;
        b.term <- Jmp t
      | Switch (Imm v, cases, default) ->
        let target =
          match List.assoc_opt v cases with Some l -> l | None -> default
        in
        b.term <- Jmp target
      | Switch (v, [], default) ->
        ignore v;
        b.term <- Jmp default
      | Ret _ | Jmp _ | Br _ | Switch _ | Tail_call _ | Loop_branch _ -> ())
    f.blocks

(* Thread jumps through empty blocks: an empty block whose terminator is
   [Jmp l] can be bypassed. *)
let thread_jumps f =
  let empty_target = Hashtbl.create 8 in
  List.iter
    (fun b ->
      match (b.instrs, b.term) with
      | [], Jmp l when l <> b.label -> Hashtbl.replace empty_target b.label l
      | _ -> ())
    f.blocks;
  (* resolve chains, guarding against cycles *)
  let rec resolve seen l =
    match Hashtbl.find_opt empty_target l with
    | Some next when not (List.mem next seen) -> resolve (l :: seen) next
    | Some _ | None -> l
  in
  let changed = ref false in
  List.iter
    (fun b ->
      let g l =
        let l' = resolve [] l in
        if l' <> l then changed := true;
        l'
      in
      b.term <- map_targets g b.term)
    f.blocks;
  !changed

(* Merge a block with its unique successor when that successor has a
   unique predecessor. *)
let merge_chains f =
  let preds = predecessors f in
  let entry = (entry_block f).label in
  let changed = ref false in
  let by_label = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_label b.label b) f.blocks;
  let removed = Hashtbl.create 8 in
  List.iter
    (fun b ->
      if not (Hashtbl.mem removed b.label) then begin
        (* collect the whole single-predecessor chain, then concatenate
           the instruction segments once (appending per hop is quadratic
           on the long chains unrolling produces) *)
        let segments = ref [] in
        let rec absorb term =
          match term with
          | Jmp l when l <> entry && l <> b.label && not (Hashtbl.mem removed l)
            -> (
            match Hashtbl.find_opt preds l with
            | Some [ _ ] -> (
              match Hashtbl.find_opt by_label l with
              | Some succ ->
                segments := succ.instrs :: !segments;
                Hashtbl.replace removed l ();
                changed := true;
                absorb succ.term
              | None -> term)
            | Some _ | None -> term)
          | Ret _ | Jmp _ | Br _ | Switch _ | Tail_call _ | Loop_branch _ ->
            term
        in
        let final_term = absorb b.term in
        if !segments <> [] then begin
          b.instrs <- List.concat (b.instrs :: List.rev !segments);
          b.term <- final_term
        end
      end)
    f.blocks;
  f.blocks <- List.filter (fun b -> not (Hashtbl.mem removed b.label)) f.blocks;
  !changed

let simplify_cfg f =
  let continue_ = ref true in
  while !continue_ do
    remove_unreachable f;
    fold_branches f;
    let c1 = thread_jumps f in
    remove_unreachable f;
    let c2 = merge_chains f in
    continue_ := c1 || c2
  done

(* ------------------------------------------------------------------ *)
(* mem2reg                                                             *)
(* ------------------------------------------------------------------ *)

let mem2reg f =
  if f.nslots > 0 then begin
    let slot_reg = Array.init f.nslots (fun _ -> fresh_reg f) in
    let rewrite = function
      | Slot_load (d, s) -> Mov (d, Reg slot_reg.(s))
      | Slot_store (s, v) -> Mov (slot_reg.(s), v)
      | i -> i
    in
    List.iter (fun b -> b.instrs <- List.map rewrite b.instrs) f.blocks;
    f.nslots <- 0
  end

(* ------------------------------------------------------------------ *)
(* Local value numbering                                               *)
(* ------------------------------------------------------------------ *)

(* Keys for available expressions.  Loads are keyed by array name and
   index operand; they are invalidated by stores to the same array and,
   for globals, by calls. *)
type expr_key =
  | Kbin of binop * operand * operand
  | Kun of unop * operand
  | Kload of string * operand
  | Kslot of int
  | Kselect of operand * operand * operand

let is_local_array f name =
  List.exists (fun (n, _, _) -> n = name) f.local_arrays

let lvn_block f b =
  let const : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let copy : (int, operand) Hashtbl.t = Hashtbl.create 32 in
  let avail : (expr_key, reg) Hashtbl.t = Hashtbl.create 32 in
  (* reverse indexes so [kill] need not scan the whole table (scanning is
     quadratic on the block sizes full unrolling produces) *)
  let mentions : (int, expr_key list) Hashtbl.t = Hashtbl.create 32 in
  let copy_dests : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  let key_regs key =
    let of_op = function Reg r -> [ r ] | Imm _ -> [] in
    match key with
    | Kbin (_, a, b) -> of_op a @ of_op b
    | Kun (_, a) -> of_op a
    | Kload (_, i) -> of_op i
    | Kslot _ -> []
    | Kselect (c, x, y) -> of_op c @ of_op x @ of_op y
  in
  let index_key key v =
    List.iter
      (fun r ->
        Hashtbl.replace mentions r
          (key :: (try Hashtbl.find mentions r with Not_found -> [])))
      (v :: key_regs key)
  in
  (* resolve an operand through constants and copies *)
  let rec resolve o =
    match o with
    | Imm _ -> o
    | Reg r -> (
      match Hashtbl.find_opt const r with
      | Some n -> Imm n
      | None -> (
        match Hashtbl.find_opt copy r with
        | Some (Reg r') when r' <> r -> resolve (Reg r')
        | Some (Imm n) -> Imm n
        | Some (Reg _) | None -> o))
  in
  (* kill all facts about register r *)
  let kill r =
    Hashtbl.remove const r;
    (match Hashtbl.find_opt copy r with
    | Some (Reg s) ->
      Hashtbl.replace copy_dests s
        (List.filter (( <> ) r)
           (try Hashtbl.find copy_dests s with Not_found -> []))
    | Some (Imm _) | None -> ());
    Hashtbl.remove copy r;
    (match Hashtbl.find_opt mentions r with
    | Some keys ->
      List.iter (Hashtbl.remove avail) keys;
      Hashtbl.remove mentions r
    | None -> ());
    (* copies pointing at r are stale too *)
    match Hashtbl.find_opt copy_dests r with
    | Some dests ->
      List.iter (Hashtbl.remove copy) dests;
      Hashtbl.remove copy_dests r
    | None -> ()
  in
  let kill_loads ~also_globals name =
    let stale =
      Hashtbl.fold
        (fun k _ acc ->
          match k with
          | Kload (n, _)
            when n = name || (also_globals && not (is_local_array f n)) ->
            k :: acc
          | Kload _ | Kbin _ | Kun _ | Kslot _ | Kselect _ -> acc)
        avail []
    in
    List.iter (Hashtbl.remove avail) stale
  in
  let kill_all_global_loads () = kill_loads ~also_globals:true "\000none" in
  let kill_slots () =
    let stale =
      Hashtbl.fold
        (fun k _ acc ->
          match k with
          | Kslot _ -> k :: acc
          | Kload _ | Kbin _ | Kun _ | Kselect _ -> acc)
        avail []
    in
    List.iter (Hashtbl.remove avail) stale
  in
  let define d fact =
    kill d;
    match fact with
    | `Const n -> Hashtbl.replace const d n
    | `Copy o ->
      Hashtbl.replace copy d o;
      (match o with
      | Reg s ->
        Hashtbl.replace copy_dests s
          (d :: (try Hashtbl.find copy_dests s with Not_found -> []))
      | Imm _ -> ())
    | `Opaque -> ()
  in
  let simplify_bin op a b =
    match (op, a, b) with
    | _, Imm x, Imm y -> `Const (eval_binop op x y)
    | Add, x, Imm 0 | Add, Imm 0, x -> `Copy x
    | Sub, x, Imm 0 -> `Copy x
    | Mul, x, Imm 1 | Mul, Imm 1, x -> `Copy x
    | Mul, _, Imm 0 | Mul, Imm 0, _ -> `Const 0
    | And, _, Imm 0 | And, Imm 0, _ -> `Const 0
    | Or, x, Imm 0 | Or, Imm 0, x -> `Copy x
    | Xor, x, Imm 0 | Xor, Imm 0, x -> `Copy x
    | Shl, x, Imm 0 | Shr, x, Imm 0 -> `Copy x
    | Sub, Reg x, Reg y when x = y -> `Const 0
    | Xor, Reg x, Reg y when x = y -> `Const 0
    | _ -> `Expr
  in
  let out = ref [] in
  let emit i = out := i :: !out in
  (* an expression that reads its own destination register must not be
     recorded as available: after the write, the key's operands denote the
     new value *)
  let key_mentions key r =
    match key with
    | Kbin (_, a, b) -> a = Reg r || b = Reg r
    | Kun (_, a) -> a = Reg r
    | Kload (_, i) -> i = Reg r
    | Kslot _ -> false
    | Kselect (c, x, y) -> c = Reg r || x = Reg r || y = Reg r
  in
  let record key d =
    if not (key_mentions key d) then begin
      Hashtbl.replace avail key d;
      index_key key d
    end
  in
  let handle i =
    match i with
    | Mov (d, src) ->
      let src = resolve src in
      (match src with
      | Imm n ->
        emit (Mov (d, src));
        define d (`Const n)
      | Reg r when r = d ->
        (* self move: keep facts, drop instruction *)
        ()
      | Reg _ ->
        emit (Mov (d, src));
        define d (`Copy src))
    | Bin (op, d, a, b) -> (
      let a = resolve a and b = resolve b in
      (* canonicalize commutative ops: immediate second *)
      let a, b =
        if commutative op then
          match (a, b) with
          | Imm _, Reg _ -> (b, a)
          | _ -> (a, b)
        else (a, b)
      in
      match simplify_bin op a b with
      | `Const n ->
        emit (Mov (d, Imm n));
        define d (`Const n)
      | `Copy o ->
        emit (Mov (d, o));
        define d (`Copy o)
      | `Expr -> (
        let key = Kbin (op, a, b) in
        match Hashtbl.find_opt avail key with
        | Some r when r <> d ->
          emit (Mov (d, Reg r));
          define d (`Copy (Reg r))
        | Some _ | None ->
          emit (Bin (op, d, a, b));
          define d `Opaque;
          record key d))
    | Un (op, d, a) -> (
      let a = resolve a in
      match a with
      | Imm n ->
        let v = eval_unop op n in
        emit (Mov (d, Imm v));
        define d (`Const v)
      | Reg _ -> (
        let key = Kun (op, a) in
        match Hashtbl.find_opt avail key with
        | Some r when r <> d ->
          emit (Mov (d, Reg r));
          define d (`Copy (Reg r))
        | Some _ | None ->
          emit (Un (op, d, a));
          define d `Opaque;
          record key d))
    | Select (d, c, x, y) -> (
      let c = resolve c and x = resolve x and y = resolve y in
      match c with
      | Imm n ->
        let v = if n <> 0 then x else y in
        emit (Mov (d, v));
        (match v with
        | Imm k -> define d (`Const k)
        | Reg _ -> define d (`Copy v))
      | Reg _ -> (
        let key = Kselect (c, x, y) in
        match Hashtbl.find_opt avail key with
        | Some r when r <> d ->
          emit (Mov (d, Reg r));
          define d (`Copy (Reg r))
        | Some _ | None ->
          emit (Select (d, c, x, y));
          define d `Opaque;
          record key d))
    | Load (d, g, idx) -> (
      let idx = resolve idx in
      let key = Kload (g, idx) in
      match Hashtbl.find_opt avail key with
      | Some r when r <> d ->
        emit (Mov (d, Reg r));
        define d (`Copy (Reg r))
      | Some _ | None ->
        emit (Load (d, g, idx));
        define d `Opaque;
        record key d)
    | Store (g, idx, v) ->
      let idx = resolve idx and v = resolve v in
      emit (Store (g, idx, v));
      kill_loads ~also_globals:false g
    | Slot_load (d, s) -> (
      let key = Kslot s in
      match Hashtbl.find_opt avail key with
      | Some r when r <> d ->
        emit (Mov (d, Reg r));
        define d (`Copy (Reg r))
      | Some _ | None ->
        emit (Slot_load (d, s));
        define d `Opaque;
        record key d)
    | Slot_store (s, v) ->
      let v = resolve v in
      emit (Slot_store (s, v));
      let stale =
        Hashtbl.fold
          (fun k _ acc ->
            match k with
            | Kslot s' when s' = s -> k :: acc
            | Kslot _ | Kload _ | Kbin _ | Kun _ | Kselect _ -> acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) stale
    | Call (dst, fn, args) ->
      let args = List.map resolve args in
      emit (Call (dst, fn, args));
      kill_all_global_loads ();
      kill_slots ();
      (match dst with Some d -> define d `Opaque | None -> ())
    | Vload (d, g, idx) ->
      emit (Vload (d, g, resolve idx));
      ignore d
    | Vstore (g, idx, v) ->
      emit (Vstore (g, resolve idx, v));
      kill_loads ~also_globals:false g
    | Vbin (op, d, a, b) -> emit (Vbin (op, d, a, b))
    | Vsplat (d, v) -> emit (Vsplat (d, resolve v))
    | Vpack (d, ops) -> emit (Vpack (d, List.map resolve ops))
    | Vreduce (op, d, v) ->
      emit (Vreduce (op, d, v));
      define d `Opaque
    | Print_int v -> emit (Print_int (resolve v))
    | Print_char v -> emit (Print_char (resolve v))
    | Read_input (d, idx) ->
      emit (Read_input (d, resolve idx));
      define d `Opaque
    | Input_len d ->
      emit (Input_len d);
      define d `Opaque
  in
  List.iter handle b.instrs;
  b.instrs <- List.rev !out;
  (* also simplify the terminator with what we know *)
  let resolve_term o =
    match o with
    | Imm _ -> o
    | Reg r -> (
      match Hashtbl.find_opt const r with
      | Some n -> Imm n
      | None -> (
        match Hashtbl.find_opt copy r with Some o' -> o' | None -> o))
  in
  b.term <-
    (match b.term with
    | Ret (Some v) -> Ret (Some (resolve_term v))
    | Br (c, t, e) -> Br (resolve_term c, t, e)
    | Switch (v, cases, d) -> Switch (resolve_term v, cases, d)
    | Tail_call (fn, args) -> Tail_call (fn, List.map resolve_term args)
    | (Ret None | Jmp _ | Loop_branch _) as t -> t)

let lvn f = List.iter (lvn_block f) f.blocks

(* ------------------------------------------------------------------ *)
(* Liveness and dead-code elimination                                  *)
(* ------------------------------------------------------------------ *)

(* One liveness solve per round; each block is then walked backward over
   a copy of its live-out bits. *)
let dce_once f =
  let lv = Analysis.Dataflow.Liveness.solve f in
  let changed = ref false in
  List.iteri
    (fun p b ->
      let live = Array.copy lv.live_out.(p) in
      List.iter (Bits.add live) (term_uses b.term);
      (* walk backwards *)
      let kept =
        List.fold_left
          (fun kept i ->
            let keep =
              instr_has_side_effect i
              ||
              match instr_def i with
              | Some d -> Bits.mem live d
              | None ->
                (* defines only a vector register; vector liveness is
                   block-local in generated code, so keep it *)
                true
            in
            if keep then begin
              (match instr_def i with
              | Some d -> Bits.remove live d
              | None -> ());
              List.iter (Bits.add live) (instr_uses i);
              i :: kept
            end
            else begin
              changed := true;
              kept
            end)
          []
          (List.rev b.instrs)
      in
      b.instrs <- kept)
    f.blocks;
  !changed

let dce f =
  let continue_ = ref true in
  while !continue_ do
    continue_ := dce_once f
  done

let run_baseline f =
  simplify_cfg f;
  mem2reg f;
  lvn f;
  dce f;
  simplify_cfg f;
  lvn f;
  dce f
