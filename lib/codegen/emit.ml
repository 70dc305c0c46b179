open Isa.Insn
module Ir = Vir.Ir
module Iset = Passes.Cfg_utils.Iset
module Dataflow = Analysis.Dataflow

type switch_strategy = Jump_table | Binary_search | Linear

type options = {
  switch_strategy : switch_strategy;
  jump_table_min : int;
  peephole : bool;
  align_functions : bool;
  align_loops : bool;
  omit_frame_pointer : bool;
  stack_realign : bool;
  long_calls : bool;
  allocatable_regs : int;
  return_reg : int;
}

let default_options =
  {
    switch_strategy = Jump_table;
    jump_table_min = 4;
    peephole = false;
    align_functions = false;
    align_loops = false;
    omit_frame_pointer = false;
    stack_realign = false;
    long_calls = false;
    allocatable_regs = 16;
    return_reg = 0;
  }

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let scratch0 = 15

let scratch1 = 14

(* ------------------------------------------------------------------ *)
(* Register allocation                                                 *)
(* ------------------------------------------------------------------ *)

type alloc = Preg of int | Spill of int  (** machine register or frame index *)

(* Linear scan over coarse live intervals.  [intervals] is
   (vreg, start, stop, crosses_call); returns vreg → alloc plus the list
   of used callee-saved registers and the number of spill slots. *)
let linear_scan ~caller_pool ~callee_pool ~first_spill intervals =
  let assignment = Hashtbl.create 64 in
  let free_caller = ref caller_pool in
  let free_callee = ref callee_pool in
  let active = ref [] in
  let next_spill = ref first_spill in
  let used_callee = ref [] in
  let sorted =
    List.sort (fun (_, s1, _, _) (_, s2, _, _) -> compare s1 s2) intervals
  in
  let release reg =
    if List.mem reg caller_pool then free_caller := reg :: !free_caller
    else if List.mem reg callee_pool then free_callee := reg :: !free_callee
  in
  let expire now =
    let still, done_ =
      List.partition (fun (_, _, stop, _) -> stop >= now) !active
    in
    active := still;
    List.iter
      (fun (v, _, _, _) ->
        match Hashtbl.find_opt assignment v with
        | Some (Preg r) -> release r
        | Some (Spill _) | None -> ())
      done_
  in
  List.iter
    (fun (v, start, stop, crosses) ->
      expire start;
      let pool = if crosses then free_callee else free_caller in
      let alt = if crosses then [] else !free_callee in
      let take =
        match !pool with
        | r :: rest ->
          pool := rest;
          Some r
        | [] -> (
          (* non-call-crossing intervals may borrow a callee-saved reg *)
          match alt with
          | r :: rest when not crosses ->
            free_callee := rest;
            Some r
          | _ -> None)
      in
      match take with
      | Some r ->
        if List.mem r callee_pool && not (List.mem r !used_callee) then
          used_callee := r :: !used_callee;
        Hashtbl.replace assignment v (Preg r);
        active := (v, start, stop, crosses) :: !active
      | None ->
        (* spill the active interval with the furthest end among those in
           a compatible pool, or this one *)
        let candidates =
          List.filter
            (fun (v', _, _, crosses') ->
              (crosses' = crosses || ((not crosses) && crosses'))
              &&
              match Hashtbl.find_opt assignment v' with
              | Some (Preg _) -> true
              | Some (Spill _) | None -> false)
            !active
        in
        let furthest =
          List.fold_left
            (fun best ((_, _, stop', _) as cand) ->
              match best with
              | None -> Some cand
              | Some (_, _, bstop, _) ->
                if stop' > bstop then Some cand else best)
            None candidates
        in
        (match furthest with
        | Some ((v', _, stop', _) as victim) when stop' > stop ->
          (* steal the victim's register *)
          let r =
            match Hashtbl.find assignment v' with
            | Preg r -> r
            | Spill _ -> assert false
          in
          Hashtbl.replace assignment v' (Spill !next_spill);
          incr next_spill;
          active := List.filter (fun a -> a != victim) !active;
          Hashtbl.replace assignment v (Preg r);
          active := (v, start, stop, crosses) :: !active
        | Some _ | None ->
          Hashtbl.replace assignment v (Spill !next_spill);
          incr next_spill))
    sorted;
  (assignment, List.sort compare !used_callee, !next_spill - first_spill)

(* Coarse live intervals, (reg, start, stop, crosses_call), from
   block-level liveness over the registers [uses]/[def]/[term_uses]
   name; the [entry] registers are defined at position 0.  [size] is the
   tables' initial size: [Hashtbl.fold] order breaks ties in
   [linear_scan]'s stable sort, so it is part of the allocation. *)
let live_intervals ~size ~uses ~def ~term_uses ~entry ~calls
    (live : Dataflow.liveness) (f : Ir.func) =
  let start_tbl = Hashtbl.create size in
  let stop_tbl = Hashtbl.create size in
  let call_positions = ref [] in
  let touch r p =
    (match Hashtbl.find_opt start_tbl r with
    | Some s when s <= p -> ()
    | Some _ | None -> Hashtbl.replace start_tbl r p);
    match Hashtbl.find_opt stop_tbl r with
    | Some s when s >= p -> ()
    | Some _ | None -> Hashtbl.replace stop_tbl r p
  in
  let pos = ref 0 in
  List.iteri
    (fun p (b : Ir.block) ->
      let bstart = !pos in
      incr pos;
      List.iter
        (fun i ->
          List.iter (fun r -> touch r !pos) (uses i);
          (match def i with Some d -> touch d !pos | None -> ());
          (match i with
          | Ir.Call _ when calls -> call_positions := !pos :: !call_positions
          | _ -> ());
          incr pos)
        b.instrs;
      List.iter (fun r -> touch r !pos) (term_uses b.term);
      let bend = !pos in
      incr pos;
      Dataflow.Bits.iter (fun r -> touch r bstart) live.live_in.(p);
      Dataflow.Bits.iter (fun r -> touch r bend) live.live_out.(p))
    f.blocks;
  List.iter (fun r -> touch r 0) entry;
  let calls = !call_positions in
  Hashtbl.fold
    (fun r start acc ->
      let stop = Hashtbl.find stop_tbl r in
      let crosses = List.exists (fun c -> c > start && c < stop) calls in
      (r, start, stop, crosses) :: acc)
    start_tbl []

(* Scalar registers: parameters are defined at entry, and a
   [Loop_branch] counter is a terminator use. *)
let intervals_of_func live (f : Ir.func) =
  live_intervals ~size:64 ~uses:Ir.instr_uses ~def:Ir.instr_def
    ~term_uses:Ir.term_uses ~entry:f.params ~calls:true live f

(* Vector register intervals.  Vector values cross blocks (a reduction
   accumulator lives from its splat in the preheader, through the loop
   body, to the reduce after the loop), so block-level vector liveness is
   required — position-only intervals break as soon as a layout pass
   reorders the blocks.  Vector registers come from one caller-saved
   pool, so no interval is marked as crossing a call. *)
let vintervals_of_func (f : Ir.func) =
  live_intervals ~size:8 ~uses:Ir.instr_vuses ~def:Ir.instr_vdef
    ~term_uses:(fun _ -> [])
    ~entry:[] ~calls:false (Dataflow.Vliveness.solve f) f

(* ------------------------------------------------------------------ *)
(* Emission context                                                    *)
(* ------------------------------------------------------------------ *)

type item =
  | Ins of insn  (** branch targets are symbolic label ids *)
  | Lbl of int
  | Align of int

type fctx = {
  opts : options;
  arch : arch;
  func : Ir.func;
  alloc : (int, alloc) Hashtbl.t;
  valloc : (int, alloc) Hashtbl.t;
  fids : (string, int) Hashtbl.t;
  syms : (string, int) Hashtbl.t;  (** global data symbol ids *)
  local_bases : (string, int) Hashtbl.t;  (** local array name → frame index *)
  nslots : int;
  frame_size : int;
  ncs : int;  (** callee-saved registers pushed (incl. FP slot exclusion) *)
  use_fp : bool;
  used_callee : int list;
  nparams : int;
  mutable push_depth : int;
  mutable items : item list;  (** reversed *)
  mutable next_label : int;  (** internal labels, distinct from block ids *)
  live : Dataflow.liveness;  (** the function's scalar liveness *)
}

let emit ctx i = ctx.items <- Ins i :: ctx.items

let emit_label ctx l = ctx.items <- Lbl l :: ctx.items

let fresh_internal ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

(* Frame addressing.  Word index [fi] counts upward from the bottom of
   the frame so that array elements and vector accesses occupy ascending
   addresses: FP-relative address = fp − ncs − frame_size + fi;
   SP-relative = sp + fi (+ pending pushes). *)
let frame_access ctx fi =
  if ctx.use_fp then (FP_rel, fi - ctx.ncs - ctx.frame_size)
  else (SP_rel, fi + ctx.push_depth)

let arg_access ctx k =
  if ctx.use_fp then (FP_rel, 2 + k)
  else (SP_rel, ctx.frame_size + ctx.ncs + 1 + k + ctx.push_depth)

(* Resolve an IR register for reading; may emit a reload into [scratch]. *)
let read_reg ctx r ~scratch =
  match Hashtbl.find_opt ctx.alloc r with
  | Some (Preg m) -> m
  | Some (Spill fi) ->
    let base, off = frame_access ctx fi in
    emit ctx (Ildf (scratch, base, off, Oimm 0));
    scratch
  | None ->
    (* never-defined register: materialize 0 (matches interpreter) *)
    emit ctx (Imov (scratch, Oimm 0));
    scratch

let read_operand ctx o ~scratch =
  match o with
  | Ir.Imm n -> Oimm n
  | Ir.Reg r -> Oreg (read_reg ctx r ~scratch)

(* Destination register: returns the machine register to compute into and
   a completion thunk that stores spills. *)
let write_reg ctx d =
  match Hashtbl.find_opt ctx.alloc d with
  | Some (Preg m) -> (m, fun () -> ())
  | Some (Spill fi) ->
    ( scratch0,
      fun () ->
        let base, off = frame_access ctx fi in
        emit ctx (Istf (base, off, Oimm 0, Oreg scratch0)) )
  | None -> (scratch0, fun () -> ())

let vreg_of ctx v =
  match Hashtbl.find_opt ctx.valloc v with
  | Some (Preg m) -> m
  | Some (Spill _) | None ->
    errorf "%s: vector register pressure exceeds hardware" ctx.func.fname

(* Data reference: global symbol or local (frame) array. *)
type data_ref = Dsym of int | Dframe of int

let data_ref ctx name =
  match Hashtbl.find_opt ctx.local_bases name with
  | Some fi -> Dframe fi
  | None -> (
    match Hashtbl.find_opt ctx.syms name with
    | Some id -> Dsym id
    | None -> errorf "%s: unknown array %s" ctx.func.fname name)

let alu_of_binop = function
  | Ir.Add -> Aadd
  | Ir.Sub -> Asub
  | Ir.Mul -> Amul
  | Ir.Div -> Adiv
  | Ir.Mod -> Amod
  | Ir.And -> Aand
  | Ir.Or -> Aor
  | Ir.Xor -> Axor
  | Ir.Shl -> Ashl
  | Ir.Shr -> Ashr
  | Ir.Slt | Ir.Sle | Ir.Sgt | Ir.Sge | Ir.Seq | Ir.Sne ->
    invalid_arg "alu_of_binop: comparison"

let cond_of_binop = function
  | Ir.Slt -> Clt
  | Ir.Sle -> Cle
  | Ir.Sgt -> Cgt
  | Ir.Sge -> Cge
  | Ir.Seq -> Ceq
  | Ir.Sne -> Cne
  | _ -> invalid_arg "cond_of_binop"

let is_comparison = function
  | Ir.Slt | Ir.Sle | Ir.Sgt | Ir.Sge | Ir.Seq | Ir.Sne -> true
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.And | Ir.Or | Ir.Xor
  | Ir.Shl | Ir.Shr ->
    false

let negate_cond = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cle -> Cgt
  | Cgt -> Cle
  | Cge -> Clt

(* ------------------------------------------------------------------ *)
(* Instruction selection                                               *)
(* ------------------------------------------------------------------ *)

let fid_of ctx name =
  match Hashtbl.find_opt ctx.fids name with
  | Some id -> id
  | None -> errorf "%s: call to unknown function %s" ctx.func.fname name

let emit_call_push_args ctx args =
  List.iter
    (fun a ->
      let o = read_operand ctx a ~scratch:scratch0 in
      emit ctx (Ipush o);
      ctx.push_depth <- ctx.push_depth + 1)
    (List.rev args)

let rec emit_instr ctx (i : Ir.instr) =
  match i with
  | Ir.Mov (d, src) ->
    let o = read_operand ctx src ~scratch:scratch0 in
    let m, fin = write_reg ctx d in
    if o <> Oreg m then emit ctx (Imov (m, o));
    fin ()
  | Ir.Bin (op, d, a, b) when is_comparison op ->
    let ra = read_reg_operand ctx a ~scratch:scratch0 in
    let ob = read_operand ctx b ~scratch:scratch1 in
    emit ctx (Icmp (ra, ob));
    let m, fin = write_reg ctx d in
    emit ctx (Isetcc (cond_of_binop op, m));
    fin ()
  | Ir.Bin (op, d, a, b) ->
    let ra = read_reg_operand ctx a ~scratch:scratch0 in
    let ob = read_operand ctx b ~scratch:scratch1 in
    let m, fin = write_reg ctx d in
    emit ctx (Ialu (alu_of_binop op, m, ra, ob));
    fin ()
  | Ir.Un (op, d, a) ->
    let ra = read_reg_operand ctx a ~scratch:scratch0 in
    let m, fin = write_reg ctx d in
    emit ctx (match op with Ir.Neg -> Ineg (m, ra) | Ir.Not -> Inot (m, ra));
    fin ()
  | Ir.Select (d, c, a, b) ->
    (* test c; mov d, b; cmovne d, a.  Only Icmp/Itest modify flags in
       VX, so spill reloads may be interleaved freely.  Scratch usage:
       rc → scratch0 (dead after the test), a → scratch1, b → loaded
       directly into the destination register (which is scratch0 when d
       itself spills). *)
    let rc = read_reg_operand ctx c ~scratch:scratch0 in
    emit ctx (Itest (rc, rc));
    let m, fin = write_reg ctx d in
    let oa = read_operand ctx a ~scratch:scratch1 in
    if oa = Oreg m then begin
      (* d aliases a: keep a in place and select the other way round *)
      let ob = read_operand ctx b ~scratch:scratch0 in
      emit ctx (Icmov (Ceq, m, ob))
    end
    else begin
      (match b with
      | Ir.Reg r -> (
        match Hashtbl.find_opt ctx.alloc r with
        | Some (Preg mb) -> if mb <> m then emit ctx (Imov (m, Oreg mb))
        | Some (Spill fi) ->
          let base, off = frame_access ctx fi in
          emit ctx (Ildf (m, base, off, Oimm 0))
        | None -> emit ctx (Imov (m, Oimm 0)))
      | Ir.Imm n -> emit ctx (Imov (m, Oimm n)));
      emit ctx (Icmov (Cne, m, oa))
    end;
    fin ()
  | Ir.Load (d, name, idx) -> (
    let oi = read_operand ctx idx ~scratch:scratch0 in
    let m, fin = write_reg ctx d in
    (match data_ref ctx name with
    | Dsym s -> emit ctx (Ild (m, s, oi))
    | Dframe fi ->
      let base, off = frame_access ctx fi in
      emit ctx (Ildf (m, base, off, oi)));
    fin ())
  | Ir.Store (name, idx, v) -> (
    let oi = read_operand ctx idx ~scratch:scratch0 in
    let ov = read_operand ctx v ~scratch:scratch1 in
    match data_ref ctx name with
    | Dsym s -> emit ctx (Ist (s, oi, ov))
    | Dframe fi ->
      let base, off = frame_access ctx fi in
      emit ctx (Istf (base, off, oi, ov)))
  | Ir.Slot_load (d, s) ->
    let m, fin = write_reg ctx d in
    let base, off = frame_access ctx s in
    emit ctx (Ildf (m, base, off, Oimm 0));
    fin ()
  | Ir.Slot_store (s, v) ->
    let ov = read_operand ctx v ~scratch:scratch0 in
    let base, off = frame_access ctx s in
    emit ctx (Istf (base, off, Oimm 0, ov))
  | Ir.Call (dst, fn, args) -> (
    let fid = fid_of ctx fn in
    let nargs = List.length args in
    emit_call_push_args ctx args;
    if ctx.opts.long_calls then begin
      emit ctx (Ila (scratch0, fid));
      emit ctx (Icallr scratch0)
    end
    else emit ctx (Icall fid);
    if nargs > 0 then emit ctx (Ialu (Aadd, sp, sp, Oimm nargs));
    ctx.push_depth <- ctx.push_depth - nargs;
    match dst with
    | None -> ()
    | Some d ->
      let m, fin = write_reg ctx d in
      if m <> ctx.opts.return_reg then
        emit ctx (Imov (m, Oreg ctx.opts.return_reg));
      fin ())
  | Ir.Vload (d, name, idx) -> (
    let oi = read_operand ctx idx ~scratch:scratch0 in
    let vd = vreg_of ctx d in
    match data_ref ctx name with
    | Dsym s -> emit ctx (Ivld (vd, s, oi))
    | Dframe fi ->
      let base, off = frame_access ctx fi in
      emit ctx (Ivldf (vd, base, off, oi)))
  | Ir.Vstore (name, idx, v) -> (
    let oi = read_operand ctx idx ~scratch:scratch0 in
    let vv = vreg_of ctx v in
    match data_ref ctx name with
    | Dsym s -> emit ctx (Ivst (s, oi, vv))
    | Dframe fi ->
      let base, off = frame_access ctx fi in
      emit ctx (Ivstf (base, off, oi, vv)))
  | Ir.Vbin (op, d, a, b) ->
    emit ctx
      (Ivalu (alu_of_binop op, vreg_of ctx d, vreg_of ctx a, vreg_of ctx b))
  | Ir.Vsplat (d, v) ->
    let o = read_operand ctx v ~scratch:scratch0 in
    emit ctx (Ivsplat (vreg_of ctx d, o))
  | Ir.Vpack (d, ops) -> (
    match ops with
    | [ a; b; c; e ] ->
      (* the SLP pass only packs immediates, so at most two register
         operands can ever need a reload here *)
      let spilled o =
        match o with
        | Ir.Reg r -> (
          match Hashtbl.find_opt ctx.alloc r with
          | Some (Spill _) | None -> true
          | Some (Preg _) -> false)
        | Ir.Imm _ -> false
      in
      let nspilled =
        List.length (List.filter spilled [ a; b; c; e ])
      in
      if nspilled > 2 then
        errorf "%s: vpack with %d spilled operands" ctx.func.fname nspilled;
      let scr = ref [ scratch0; scratch1 ] in
      let rd o =
        if spilled o then begin
          match !scr with
          | s :: rest ->
            scr := rest;
            read_operand ctx o ~scratch:s
          | [] -> assert false
        end
        else read_operand ctx o ~scratch:scratch0
      in
      let oa = rd a in
      let ob = rd b in
      let oc = rd c in
      let oe = rd e in
      emit ctx (Ivpack (vreg_of ctx d, oa, ob, oc, oe))
    | _ -> errorf "%s: vpack arity" ctx.func.fname)
  | Ir.Vreduce (op, d, v) ->
    let vv = vreg_of ctx v in
    let m, fin = write_reg ctx d in
    emit ctx (Ivred (alu_of_binop op, m, vv));
    fin ()
  | Ir.Print_int v ->
    let o = read_operand ctx v ~scratch:scratch0 in
    emit ctx (Iprint o)
  | Ir.Print_char v ->
    let o = read_operand ctx v ~scratch:scratch0 in
    emit ctx (Iprintc o)
  | Ir.Read_input (d, idx) ->
    let oi = read_operand ctx idx ~scratch:scratch0 in
    let m, fin = write_reg ctx d in
    emit ctx (Iread (m, oi));
    fin ()
  | Ir.Input_len d ->
    let m, fin = write_reg ctx d in
    emit ctx (Ilen m);
    fin ()

and read_reg_operand ctx o ~scratch =
  match o with
  | Ir.Reg r -> read_reg ctx r ~scratch
  | Ir.Imm n ->
    emit ctx (Imov (scratch, Oimm n));
    scratch

(* ------------------------------------------------------------------ *)
(* Epilogue / terminators                                              *)
(* ------------------------------------------------------------------ *)

(* Restore callee-saved registers and the stack, without the final ret
   (shared by Ret and tail calls). *)
let emit_epilogue ctx =
  if ctx.use_fp then begin
    (* callee-saved were pushed right after fp: restore them FP-relative,
       then unwind through the frame pointer *)
    List.iteri
      (fun j r -> emit ctx (Ildf (r, FP_rel, -(j + 1), Oimm 0)))
      ctx.used_callee;
    emit ctx (Imov (sp, Oreg fp));
    emit ctx (Ipop fp)
  end
  else begin
    emit ctx (Ialu (Aadd, sp, sp, Oimm ctx.frame_size));
    List.iter (fun r -> emit ctx (Ipop r)) (List.rev ctx.used_callee)
  end

let emit_ret ctx v =
  (match v with
  | None -> ()
  | Some o ->
    let ov = read_operand ctx o ~scratch:scratch0 in
    if ov <> Oreg ctx.opts.return_reg then
      emit ctx (Imov (ctx.opts.return_reg, ov)));
  emit_epilogue ctx;
  emit ctx Iret

let emit_tail_call ctx fn args =
  let fid = fid_of ctx fn in
  let nargs = List.length args in
  if nargs > ctx.nparams then begin
    (* cannot reuse the incoming argument area: degrade to call + ret *)
    emit_call_push_args ctx args;
    emit ctx (Icall fid);
    if nargs > 0 then emit ctx (Ialu (Aadd, sp, sp, Oimm nargs));
    ctx.push_depth <- ctx.push_depth - nargs;
    emit_epilogue ctx;
    emit ctx Iret
  end
  else begin
    (* overwrite our own argument slots, unwind, and jump *)
    emit_call_push_args ctx args;
    for k = 0 to nargs - 1 do
      emit ctx (Ipop scratch0);
      ctx.push_depth <- ctx.push_depth - 1;
      let base, off = arg_access ctx k in
      emit ctx (Istf (base, off, Oimm 0, Oreg scratch0))
    done;
    emit_epilogue ctx;
    emit ctx (Ijmpf fid)
  end

(* Switch lowering.  [rv] holds the scrutinee. *)
let emit_switch ctx rv cases default ~block_sym =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) cases in
  match sorted with
  | [] -> emit ctx (Ijmp (block_sym default))
  | (kmin, _) :: _ ->
    let kmax = fst (List.nth sorted (List.length sorted - 1)) in
    let ncases = List.length sorted in
    let range = kmax - kmin + 1 in
    let dense = range <= 4 * ncases && range >= 1 in
    let strategy =
      match ctx.opts.switch_strategy with
      | Jump_table when ncases >= ctx.opts.jump_table_min && dense ->
        `Table
      | Binary_search when ncases >= 3 -> `Bsearch
      | Jump_table | Binary_search | Linear -> `Linear
    in
    (match strategy with
    | `Table ->
      emit ctx (Ialu (Asub, scratch0, rv, Oimm kmin));
      emit ctx (Icmp (scratch0, Oimm 0));
      emit ctx (Ijcc (Clt, block_sym default));
      emit ctx (Icmp (scratch0, Oimm range));
      emit ctx (Ijcc (Cge, block_sym default));
      let table =
        List.init range (fun i ->
            match List.assoc_opt (kmin + i) sorted with
            | Some l -> block_sym l
            | None -> block_sym default)
      in
      emit ctx (Ijtab (scratch0, table))
    | `Bsearch ->
      let arr = Array.of_list sorted in
      let rec go lo hi =
        if lo > hi then emit ctx (Ijmp (block_sym default))
        else if hi - lo < 2 then begin
          (* a couple of labels: linear compares *)
          for i = lo to hi do
            let k, l = arr.(i) in
            emit ctx (Icmp (rv, Oimm k));
            emit ctx (Ijcc (Ceq, block_sym l))
          done;
          emit ctx (Ijmp (block_sym default))
        end
        else begin
          let mid = (lo + hi) / 2 in
          let k, l = arr.(mid) in
          emit ctx (Icmp (rv, Oimm k));
          emit ctx (Ijcc (Ceq, block_sym l));
          let right = fresh_internal ctx in
          emit ctx (Ijcc (Cgt, right));
          go lo (mid - 1);
          emit_label ctx right;
          go (mid + 1) hi
        end
      in
      go 0 (Array.length arr - 1)
    | `Linear ->
      List.iter
        (fun (k, l) ->
          emit ctx (Icmp (rv, Oimm k));
          emit ctx (Ijcc (Ceq, block_sym l)))
        sorted;
      emit ctx (Ijmp (block_sym default)))

(* Try to fuse a trailing comparison with the branch. *)
let fused_condition ctx (b : Ir.block) =
  match (b.term, List.rev b.instrs) with
  | Ir.Br (Ir.Reg c, t, e), Ir.Bin (op, c', a, bb) :: rest
    when c' = c && is_comparison op
         &&
         let p = ctx.live.live_pos b.label in
         not (p >= 0 && Dataflow.Bits.mem ctx.live.live_out.(p) c) ->
    Some (List.rev rest, op, a, bb, t, e)
  | _ -> None

let emit_terminator ctx (b : Ir.block) ~next_label ~block_sym =
  match b.term with
  | Ir.Ret v -> emit_ret ctx v
  | Ir.Tail_call (fn, args) -> emit_tail_call ctx fn args
  | Ir.Jmp l -> if Some l <> next_label then emit ctx (Ijmp (block_sym l))
  | Ir.Br (c, t, e) -> (
    match c with
    | Ir.Imm n ->
      let target = if n <> 0 then t else e in
      if Some target <> next_label then emit ctx (Ijmp (block_sym target))
    | Ir.Reg r ->
      let rc = read_reg ctx r ~scratch:scratch0 in
      emit ctx (Itest (rc, rc));
      if Some e = next_label then emit ctx (Ijcc (Cne, block_sym t))
      else if Some t = next_label then emit ctx (Ijcc (Ceq, block_sym e))
      else begin
        emit ctx (Ijcc (Cne, block_sym t));
        emit ctx (Ijmp (block_sym e))
      end)
  | Ir.Loop_branch (r, body, exit_) -> (
    match Hashtbl.find_opt ctx.alloc r with
    | Some (Preg m) ->
      emit ctx (Iloop (m, block_sym body));
      if Some exit_ <> next_label then emit ctx (Ijmp (block_sym exit_))
    | Some (Spill fi) ->
      (* decrement in memory, then branch *)
      let base, off = frame_access ctx fi in
      emit ctx (Ildf (scratch0, base, off, Oimm 0));
      emit ctx (Ialu (Asub, scratch0, scratch0, Oimm 1));
      emit ctx (Istf (base, off, Oimm 0, Oreg scratch0));
      emit ctx (Itest (scratch0, scratch0));
      emit ctx (Ijcc (Cne, block_sym body));
      if Some exit_ <> next_label then emit ctx (Ijmp (block_sym exit_))
    | None ->
      (* counter never defined: treat as zero, loop exits immediately *)
      if Some exit_ <> next_label then emit ctx (Ijmp (block_sym exit_)))
  | Ir.Switch (v, cases, default) ->
    let rv = read_reg_operand ctx v ~scratch:scratch0 in
    emit_switch ctx rv cases default ~block_sym

(* ------------------------------------------------------------------ *)
(* Per-function code generation                                        *)
(* ------------------------------------------------------------------ *)

let emit_branch_or_fused ctx b ~next_label ~block_sym =
  match fused_condition ctx b with
  | Some (instrs, op, a, bb, t, e) ->
    List.iter (emit_instr ctx) instrs;
    let ra = read_reg_operand ctx a ~scratch:scratch0 in
    let ob = read_operand ctx bb ~scratch:scratch1 in
    emit ctx (Icmp (ra, ob));
    let cc = cond_of_binop op in
    if Some e = next_label then emit ctx (Ijcc (cc, block_sym t))
    else if Some t = next_label then
      emit ctx (Ijcc (negate_cond cc, block_sym e))
    else begin
      emit ctx (Ijcc (cc, block_sym t));
      emit ctx (Ijmp (block_sym e))
    end
  | None ->
    List.iter (emit_instr ctx) b.instrs;
    emit_terminator ctx b ~next_label ~block_sym

let compile_function ~opts ~arch ~fids ~syms (f : Ir.func) =
  let reg_cap = min opts.allocatable_regs (register_count arch) in
  let use_fp = not opts.omit_frame_pointer in
  let caller_pool =
    List.filter
      (fun r -> r < reg_cap && r <> fp && r <> sp && r < 4)
      [ 0; 1; 2; 3 ]
  in
  let caller_pool =
    if List.mem opts.return_reg caller_pool || opts.return_reg >= reg_cap
    then caller_pool
    else caller_pool @ [ opts.return_reg ]
  in
  let callee_pool =
    List.filter
      (fun r ->
        r < reg_cap && r <> sp && r <> opts.return_reg
        && (r <> fp || not use_fp))
      [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
  in
  (* frame layout: IR slots, local arrays, spills *)
  let local_bases = Hashtbl.create 4 in
  let arrays_total =
    List.fold_left
      (fun acc (name, size, _) ->
        Hashtbl.replace local_bases name (f.nslots + acc);
        acc + size)
      0 f.local_arrays
  in
  let first_spill = f.nslots + arrays_total in
  (* one scalar liveness solve serves the allocator and branch fusion *)
  let live = Dataflow.Liveness.solve f in
  let intervals = intervals_of_func live f in
  let alloc, used_callee, nspills =
    linear_scan ~caller_pool ~callee_pool ~first_spill intervals
  in
  let vintervals = vintervals_of_func f in
  let valloc, _, vspills =
    linear_scan
      ~caller_pool:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
      ~callee_pool:[] ~first_spill:0 vintervals
  in
  if vspills > 0 then
    errorf "%s: vector register pressure exceeds hardware" f.fname;
  let frame_size = first_spill + nspills in
  let ctx =
    {
      opts;
      arch;
      func = f;
      alloc;
      valloc;
      fids;
      syms;
      local_bases;
      nslots = f.nslots;
      frame_size;
      ncs = List.length used_callee;
      use_fp;
      used_callee;
      nparams = List.length f.params;
      push_depth = 0;
      items = [];
      next_label = 1_000_000;  (* distinct from IR block labels *)
      live;
    }
  in
  let block_sym l = l in
  (* prologue *)
  if use_fp then begin
    emit ctx (Ipush (Oreg fp));
    emit ctx (Imov (fp, Oreg sp))
  end;
  List.iter (fun r -> emit ctx (Ipush (Oreg r))) used_callee;
  if frame_size > 0 then emit ctx (Ialu (Asub, sp, sp, Oimm frame_size));
  if opts.stack_realign && use_fp then
    emit ctx (Ialu (Aand, sp, sp, Oimm (-2)));
  (* zero the slot + local-array area so reads of uninitialized memory
     agree with the IR interpreter *)
  let zero_top = f.nslots + arrays_total in
  if zero_top > 0 then begin
    if zero_top <= 8 then
      for fi = 0 to zero_top - 1 do
        let base, off = frame_access ctx fi in
        emit ctx (Istf (base, off, Oimm 0, Oimm 0))
      done
    else begin
      (* store upward from the lowest address of the zero area *)
      let base, off = frame_access ctx 0 in
      emit ctx (Imov (scratch0, Oimm 0));
      let l = fresh_internal ctx in
      emit_label ctx l;
      emit ctx (Istf (base, off, Oreg scratch0, Oimm 0));
      emit ctx (Ialu (Aadd, scratch0, scratch0, Oimm 1));
      emit ctx (Icmp (scratch0, Oimm zero_top));
      emit ctx (Ijcc (Clt, l))
    end
  end;
  (* local array initializers *)
  List.iter
    (fun (name, _, init) ->
      let base_fi = Hashtbl.find local_bases name in
      List.iteri
        (fun k v ->
          if v <> 0 then begin
            let base, off = frame_access ctx base_fi in
            emit ctx (Istf (base, off, Oimm k, Oimm v))
          end)
        init)
    f.local_arrays;
  (* load parameters into their assigned homes *)
  List.iteri
    (fun k p ->
      match Hashtbl.find_opt alloc p with
      | Some (Preg m) ->
        let base, off = arg_access ctx k in
        emit ctx (Ildf (m, base, off, Oimm 0))
      | Some (Spill fi) ->
        let base, off = arg_access ctx k in
        emit ctx (Ildf (scratch0, base, off, Oimm 0));
        let base', off' = frame_access ctx fi in
        emit ctx (Istf (base', off', Oimm 0, Oreg scratch0))
      | None -> ())
    f.params;
  (* loop headers, for alignment *)
  let loop_headers =
    if opts.align_loops then
      List.fold_left
        (fun acc l -> Iset.add l.Passes.Cfg_utils.header acc)
        Iset.empty
        (Passes.Cfg_utils.natural_loops f)
    else Iset.empty
  in
  (* body blocks in layout order *)
  let rec emit_blocks = function
    | [] -> ()
    | (b : Ir.block) :: rest ->
      if Iset.mem b.label loop_headers then ctx.items <- Align 16 :: ctx.items;
      emit_label ctx b.label;
      let next_label =
        match rest with b' :: _ -> Some b'.Ir.label | [] -> None
      in
      emit_branch_or_fused ctx b ~next_label ~block_sym;
      emit_blocks rest
  in
  emit_blocks f.blocks;
  List.rev ctx.items

(* ------------------------------------------------------------------ *)
(* Peephole                                                            *)
(* ------------------------------------------------------------------ *)

let peephole_item = function
  | Ins (Imov (r, Oimm 0)) -> Ins (Ixorz r)
  | Ins (Ialu (Aadd, d, a, Oimm 1)) when d = a -> Ins (Iinc d)
  | Ins (Ialu (Asub, d, a, Oimm 1)) when d = a -> Ins (Idec d)
  | Ins (Icmp (r, Oimm 0)) -> Ins (Itest (r, r))
  | item -> item

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let retarget g = function
  | Ijmp t -> Ijmp (g t)
  | Ijcc (c, t) -> Ijcc (c, g t)
  | Iloop (r, t) -> Iloop (r, g t)
  | Ijtab (r, ts) -> Ijtab (r, List.map g ts)
  | i -> i

(* Two-pass assembly: pass 1 computes label offsets (alignment padding
   uses whole nops, so pass 2 reproduces the same layout exactly); pass 2
   encodes with resolved branch targets — target fields have a fixed
   4-byte encoding, so resolution never changes lengths. *)
let layout_function arch items ~base =
  let labels = Hashtbl.create 32 in
  let nop_len = Isa.Codec.encoded_length arch Inop in
  let off = ref base in
  List.iter
    (fun item ->
      match item with
      | Lbl l -> Hashtbl.replace labels l !off
      | Align n ->
        let pad = (n - (!off mod n)) mod n in
        let nops = (pad + nop_len - 1) / nop_len in
        off := !off + (nops * nop_len)
      | Ins i -> off := !off + Isa.Codec.encoded_length arch i)
    items;
  (labels, !off - base)

(* [on_insn] receives the text offset of every emitted instruction start
   (alignment nops included) — the ground-truth boundary oracle the
   binsight disassembly differential checks against. *)
let assemble_function ?on_insn arch items ~base =
  let labels, _ = layout_function arch items ~base in
  let buf = Buffer.create 1024 in
  let nop_len = Isa.Codec.encoded_length arch Inop in
  let note o = match on_insn with Some f -> f o | None -> () in
  let off = ref base in
  List.iter
    (fun item ->
      match item with
      | Lbl _ -> ()
      | Align n ->
        let pad = (n - (!off mod n)) mod n in
        let nops = (pad + nop_len - 1) / nop_len in
        for _ = 1 to nops do
          note !off;
          Buffer.add_string buf (Isa.Codec.encode arch Inop);
          off := !off + nop_len
        done
      | Ins i ->
        let resolve l =
          match Hashtbl.find_opt labels l with
          | Some o -> o
          | None -> errorf "assemble: undefined label %d" l
        in
        note !off;
        let encoded = Isa.Codec.encode ~at:!off arch (retarget resolve i) in
        Buffer.add_string buf encoded;
        off := !off + String.length encoded)
    items;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)
(* ------------------------------------------------------------------ *)

let compile_program ?(options = default_options) ?boundaries ~arch ~profile
    ~opt_label (p : Ir.program) =
  let opts = options in
  (* data layout *)
  let syms = Hashtbl.create 16 in
  let symbols = ref [] in
  let data_size = ref 0 in
  List.iteri
    (fun i (name, g) ->
      Hashtbl.replace syms name i;
      let size =
        match g with
        | Ir.Gscalar _ -> 1
        | Ir.Garray (n, _) -> n
      in
      symbols := (name, !data_size, size) :: !symbols;
      data_size := !data_size + size)
    p.globals;
  let data_words = Array.make (max !data_size 1) 0 in
  List.iter2
    (fun (_, g) (_, base, _) ->
      match g with
      | Ir.Gscalar v -> data_words.(base) <- v
      | Ir.Garray (_, init) ->
        List.iteri (fun k v -> data_words.(base + k) <- v) init)
    p.globals
    (List.rev !symbols);
  let fids = Hashtbl.create 16 in
  List.iteri (fun i f -> Hashtbl.replace fids f.Ir.fname i) p.funcs;
  let entry =
    match Hashtbl.find_opt fids "main" with
    | Some id -> id
    | None -> errorf "no main function"
  in
  (* compile and lay out each function *)
  let text = Buffer.create 4096 in
  let functions = ref [] in
  let word = match arch with Arm | Mips -> 4 | X86_32 | X86_64 -> 1 in
  List.iter
    (fun f ->
      let items = compile_function ~opts ~arch ~fids ~syms f in
      let items =
        if opts.peephole then List.map peephole_item items else items
      in
      (* function start alignment *)
      let align_to = if opts.align_functions then 16 else word in
      while Buffer.length text mod align_to <> 0 do
        Buffer.add_string text (Isa.Codec.encode arch Inop)
      done;
      let base = Buffer.length text in
      let offs = ref [] in
      let on_insn =
        match boundaries with
        | None -> None
        | Some _ -> Some (fun o -> offs := o :: !offs)
      in
      let code = assemble_function ?on_insn arch items ~base in
      (match boundaries with
      | Some tbl -> Hashtbl.replace tbl f.Ir.fname (List.rev !offs)
      | None -> ());
      Buffer.add_string text code;
      functions := (f.Ir.fname, base, String.length code) :: !functions)
    p.funcs;
  {
    Isa.Binary.arch;
    profile;
    opt_label;
    text = Buffer.contents text;
    data = Isa.Binary.serialize_data data_words;
    data_words;
    symbols = Array.of_list (List.rev !symbols);
    functions = Array.of_list (List.rev !functions);
    entry;
    ret_reg = opts.return_reg;
  }
