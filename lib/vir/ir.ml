(* VIR: the three-address-code intermediate representation sitting between
   the MinC frontend and the VX instruction selector.

   Design notes:
   - Virtual registers are unlimited non-negative ints; the register
     allocator maps them to machine registers later.
   - Not SSA.  The frontend lowers every MinC local scalar to a frame
     *slot* with explicit [Slot_load]/[Slot_store] — the boilerplate code
     shape of an -O0 compile.  The mem2reg pass later promotes each slot
     to a dedicated virtual register, and local value numbering cleans up
     the copies; optimization levels therefore differ structurally, as in
     a real compiler.
   - Blocks are kept in layout order: the order of [func.blocks] is the
     order the code generator emits them in, so block-reordering passes
     change the binary.
   - Vector instructions model the 4-lane SSE code produced by the
     vectorization passes. *)

type reg = int

type label = int

type operand = Reg of reg | Imm of int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr
  (* comparisons produce 0/1 *)
  | Slt
  | Sle
  | Sgt
  | Sge
  | Seq
  | Sne

type unop = Neg | Not

type instr =
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Mov of reg * operand
  | Select of reg * operand * operand * operand
      (** [Select (dst, cond, a, b)]: dst := cond ≠ 0 ? a : b — the
          branch-free form produced by if-conversion (cmov). *)
  | Load of reg * string * operand  (** dst := mem\[array + idx\] *)
  | Store of string * operand * operand  (** mem\[array + idx\] := v *)
  | Slot_load of reg * int  (** dst := frame slot *)
  | Slot_store of int * operand
  | Call of reg option * string * operand list
  | Vload of reg * string * operand
      (** 4-lane vector load from array at idx..idx+3; dst is a vector
          virtual register (separate namespace from scalar regs). *)
  | Vstore of string * operand * reg
  | Vbin of binop * reg * reg * reg
  | Vsplat of reg * operand  (** broadcast scalar to 4 lanes *)
  | Vpack of reg * operand list
      (** build a 4-lane vector from 4 scalar operands (SLP vectorizer) *)
  | Vreduce of binop * reg * reg  (** horizontal reduce vector to scalar *)
  | Print_int of operand
  | Print_char of operand
  | Read_input of reg * operand
  | Input_len of reg

type terminator =
  | Ret of operand option
  | Jmp of label
  | Br of operand * label * label  (** cond ≠ 0 → first target *)
  | Switch of operand * (int * label) list * label
  | Tail_call of string * operand list
  | Loop_branch of reg * label * label
      (** [Loop_branch (counter, body, exit)]: counter := counter − 1;
          branch to body if counter ≠ 0 — the x86 [loop] instruction,
          produced by the branch-count-reg pass.  Does not set flags. *)

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  params : reg list;
  mutable blocks : block list;  (** layout order; head is the entry *)
  mutable next_reg : int;
  mutable next_vreg : int;
  mutable next_label : int;
  mutable nslots : int;
  mutable local_arrays : (string * int * int list) list;
      (** per-function arrays spilled into the frame: name, size, init *)
}

type global_init = Gscalar of int | Garray of int * int list

type program = {
  globals : (string * global_init) list;
  mutable funcs : func list;
}

(* ------------------------------------------------------------------ *)
(* Constructors / fresh names                                          *)
(* ------------------------------------------------------------------ *)

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let fresh_vreg f =
  let r = f.next_vreg in
  f.next_vreg <- r + 1;
  r

let fresh_label f =
  let l = f.next_label in
  f.next_label <- l + 1;
  l

let find_block f label =
  match List.find_opt (fun b -> b.label = label) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "find_block: %s has no L%d" f.fname label)

let entry_block f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("entry_block: empty function " ^ f.fname)

(* ------------------------------------------------------------------ *)
(* CFG structure                                                       *)
(* ------------------------------------------------------------------ *)

let successors term =
  match term with
  | Ret _ | Tail_call _ -> []
  | Jmp l -> [ l ]
  | Br (_, a, b) -> [ a; b ]
  | Loop_branch (_, a, b) -> [ a; b ]
  | Switch (_, cases, default) ->
    List.sort_uniq compare (default :: List.map snd cases)

let predecessors f =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.label :: cur))
        (successors b.term))
    f.blocks;
  preds

let edge_count f =
  List.fold_left (fun acc b -> acc + List.length (successors b.term)) 0 f.blocks

(* Remap the targets of a terminator. *)
let map_targets g = function
  | Ret v -> Ret v
  | Tail_call (n, args) -> Tail_call (n, args)
  | Jmp l -> Jmp (g l)
  | Br (c, a, b) -> Br (c, g a, g b)
  | Loop_branch (r, a, b) -> Loop_branch (r, g a, g b)
  | Switch (v, cases, d) ->
    Switch (v, List.map (fun (k, l) -> (k, g l)) cases, g d)

(* ------------------------------------------------------------------ *)
(* Operand substitution (the rewrite machinery shared by the           *)
(* constant-propagating and value-numbering passes)                    *)
(* ------------------------------------------------------------------ *)

(* Rewrite every operand *read* of an instruction.  Destinations and the
   vector-register namespace are left alone: [g] maps values, not names. *)
let map_operands g = function
  | Bin (op, d, a, b) -> Bin (op, d, g a, g b)
  | Un (op, d, a) -> Un (op, d, g a)
  | Mov (d, a) -> Mov (d, g a)
  | Select (d, c, a, b) -> Select (d, g c, g a, g b)
  | Load (d, arr, idx) -> Load (d, arr, g idx)
  | Store (arr, idx, v) -> Store (arr, g idx, g v)
  | Slot_load _ as i -> i
  | Slot_store (s, v) -> Slot_store (s, g v)
  | Call (d, f, args) -> Call (d, f, List.map g args)
  | Vload (d, arr, idx) -> Vload (d, arr, g idx)
  | Vstore (arr, idx, v) -> Vstore (arr, g idx, v)
  | Vbin _ as i -> i
  | Vsplat (d, v) -> Vsplat (d, g v)
  | Vpack (d, vs) -> Vpack (d, List.map g vs)
  | Vreduce _ as i -> i
  | Print_int v -> Print_int (g v)
  | Print_char v -> Print_char (g v)
  | Read_input (d, idx) -> Read_input (d, g idx)
  | Input_len _ as i -> i

(* Rewrite the operand reads of a terminator.  [Loop_branch] is excluded:
   its counter is a read-modify-write register, not a value read. *)
let term_map_operands g = function
  | Ret (Some v) -> Ret (Some (g v))
  | (Ret None | Jmp _ | Loop_branch _) as t -> t
  | Br (c, a, b) -> Br (g c, a, b)
  | Switch (v, cases, d) -> Switch (g v, cases, d)
  | Tail_call (f, args) -> Tail_call (f, List.map g args)

(* ------------------------------------------------------------------ *)
(* Register use/def traversal                                          *)
(* ------------------------------------------------------------------ *)

let operand_reg = function Reg r -> Some r | Imm _ -> None

let instr_uses = function
  | Bin (_, _, a, b) -> List.filter_map operand_reg [ a; b ]
  | Un (_, _, a) | Mov (_, a) -> List.filter_map operand_reg [ a ]
  | Select (_, c, a, b) -> List.filter_map operand_reg [ c; a; b ]
  | Load (_, _, idx) -> List.filter_map operand_reg [ idx ]
  | Store (_, idx, v) -> List.filter_map operand_reg [ idx; v ]
  | Slot_load (_, _) -> []
  | Slot_store (_, v) -> List.filter_map operand_reg [ v ]
  | Call (_, _, args) -> List.filter_map operand_reg args
  | Vload (_, _, idx) -> List.filter_map operand_reg [ idx ]
  | Vstore (_, idx, _) -> List.filter_map operand_reg [ idx ]
  | Vbin (_, _, _, _) | Vreduce (_, _, _) -> []
  | Vsplat (_, v) -> List.filter_map operand_reg [ v ]
  | Vpack (_, vs) -> List.filter_map operand_reg vs
  | Print_int v | Print_char v -> List.filter_map operand_reg [ v ]
  | Read_input (_, idx) -> List.filter_map operand_reg [ idx ]
  | Input_len _ -> []

let instr_def = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Select (d, _, _, _)
  | Load (d, _, _) | Slot_load (d, _) | Read_input (d, _) | Input_len d ->
    Some d
  | Call (d, _, _) -> d
  | Vreduce (_, d, _) -> Some d
  | Store _ | Slot_store _ | Vload _ | Vstore _ | Vbin _ | Vsplat _
  | Vpack _ | Print_int _ | Print_char _ ->
    None

(* Vector register def/use (separate namespace). *)
let instr_vuses = function
  | Vstore (_, _, v) -> [ v ]
  | Vbin (_, _, a, b) -> [ a; b ]
  | Vreduce (_, _, v) -> [ v ]
  | Bin _ | Un _ | Mov _ | Select _ | Load _ | Store _ | Slot_load _
  | Slot_store _ | Call _ | Vload _ | Vsplat _ | Vpack _ | Print_int _
  | Print_char _ | Read_input _ | Input_len _ ->
    []

let instr_vdef = function
  | Vload (d, _, _) | Vbin (_, d, _, _) | Vsplat (d, _) | Vpack (d, _) ->
    Some d
  | Bin _ | Un _ | Mov _ | Select _ | Load _ | Store _ | Slot_load _
  | Slot_store _ | Call _ | Vstore _ | Vreduce _ | Print_int _
  | Print_char _ | Read_input _ | Input_len _ ->
    None

let term_uses = function
  | Ret (Some v) -> List.filter_map operand_reg [ v ]
  | Ret None -> []
  | Jmp _ -> []
  | Br (c, _, _) -> List.filter_map operand_reg [ c ]
  | Loop_branch (r, _, _) -> [ r ]
  | Switch (v, _, _) -> List.filter_map operand_reg [ v ]
  | Tail_call (_, args) -> List.filter_map operand_reg args

(* Does executing this instruction have an effect beyond writing its
   destination register?  (Used by dead-code elimination.) *)
let instr_has_side_effect = function
  | Store _ | Slot_store _ | Call _ | Vstore _ | Print_int _ | Print_char _
    ->
    true
  | Bin _ | Un _ | Mov _ | Select _ | Load _ | Slot_load _ | Vload _
  | Vbin _ | Vsplat _ | Vpack _ | Vreduce _ | Read_input _ | Input_len _ ->
    false

(* ------------------------------------------------------------------ *)
(* Evaluation of pure operators (shared by passes, IR interp, VM)      *)
(* ------------------------------------------------------------------ *)

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | Slt -> if a < b then 1 else 0
  | Sle -> if a <= b then 1 else 0
  | Sgt -> if a > b then 1 else 0
  | Sge -> if a >= b then 1 else 0
  | Seq -> if a = b then 1 else 0
  | Sne -> if a <> b then 1 else 0

let commutative = function
  | Add | Mul | And | Or | Xor | Seq | Sne -> true
  | Sub | Div | Mod | Shl | Shr | Slt | Sle | Sgt | Sge -> false

let eval_unop op a = match op with Neg -> -a | Not -> lnot a

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Seq -> "seq"
  | Sne -> "sne"

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm n -> string_of_int n

let instr_to_string i =
  let op = operand_to_string in
  match i with
  | Bin (b, d, x, y) ->
    Printf.sprintf "r%d = %s %s, %s" d (binop_name b) (op x) (op y)
  | Un (Neg, d, x) -> Printf.sprintf "r%d = neg %s" d (op x)
  | Un (Not, d, x) -> Printf.sprintf "r%d = not %s" d (op x)
  | Mov (d, x) -> Printf.sprintf "r%d = %s" d (op x)
  | Select (d, c, a, b) ->
    Printf.sprintf "r%d = select %s, %s, %s" d (op c) (op a) (op b)
  | Load (d, g, idx) -> Printf.sprintf "r%d = load %s[%s]" d g (op idx)
  | Store (g, idx, v) -> Printf.sprintf "store %s[%s], %s" g (op idx) (op v)
  | Slot_load (d, s) -> Printf.sprintf "r%d = slot%d" d s
  | Slot_store (s, v) -> Printf.sprintf "slot%d = %s" s (op v)
  | Call (Some d, f, args) ->
    Printf.sprintf "r%d = call %s(%s)" d f (String.concat ", " (List.map op args))
  | Call (None, f, args) ->
    Printf.sprintf "call %s(%s)" f (String.concat ", " (List.map op args))
  | Vload (d, g, idx) -> Printf.sprintf "v%d = vload %s[%s]" d g (op idx)
  | Vstore (g, idx, v) -> Printf.sprintf "vstore %s[%s], v%d" g (op idx) v
  | Vbin (b, d, x, y) ->
    Printf.sprintf "v%d = v%s v%d, v%d" d (binop_name b) x y
  | Vsplat (d, x) -> Printf.sprintf "v%d = vsplat %s" d (op x)
  | Vpack (d, xs) ->
    Printf.sprintf "v%d = vpack %s" d (String.concat ", " (List.map op xs))
  | Vreduce (b, d, v) -> Printf.sprintf "r%d = vreduce_%s v%d" d (binop_name b) v
  | Print_int v -> Printf.sprintf "print_int %s" (op v)
  | Print_char v -> Printf.sprintf "print_char %s" (op v)
  | Read_input (d, idx) -> Printf.sprintf "r%d = input[%s]" d (op idx)
  | Input_len d -> Printf.sprintf "r%d = input_len" d

let term_to_string t =
  let op = operand_to_string in
  match t with
  | Ret None -> "ret"
  | Ret (Some v) -> Printf.sprintf "ret %s" (op v)
  | Jmp l -> Printf.sprintf "jmp L%d" l
  | Br (c, a, b) -> Printf.sprintf "br %s, L%d, L%d" (op c) a b
  | Loop_branch (r, a, b) -> Printf.sprintf "loop r%d, L%d, L%d" r a b
  | Switch (v, cases, d) ->
    Printf.sprintf "switch %s [%s] default L%d" (op v)
      (String.concat "; "
         (List.map (fun (k, l) -> Printf.sprintf "%d→L%d" k l) cases))
      d
  | Tail_call (f, args) ->
    Printf.sprintf "tailcall %s(%s)" f (String.concat ", " (List.map op args))

let func_to_string f =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "func %s(%s) slots=%d\n" f.fname
       (String.concat ", " (List.map (Printf.sprintf "r%d") f.params))
       f.nslots);
  List.iter
    (fun blk ->
      Buffer.add_string b (Printf.sprintf "L%d:\n" blk.label);
      List.iter
        (fun i -> Buffer.add_string b ("  " ^ instr_to_string i ^ "\n"))
        blk.instrs;
      Buffer.add_string b ("  " ^ term_to_string blk.term ^ "\n"))
    f.blocks;
  Buffer.contents b

let program_to_string p =
  String.concat "\n" (List.map func_to_string p.funcs)

(* ------------------------------------------------------------------ *)
(* Size measures                                                       *)
(* ------------------------------------------------------------------ *)

let func_instr_count f =
  List.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 f.blocks

let program_instr_count p =
  List.fold_left (fun acc f -> acc + func_instr_count f) 0 p.funcs
