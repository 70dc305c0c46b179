(* The VX instruction set — the synthetic machine both compiler profiles
   target.  Shapes follow x86-64: 16 general registers (R13 is the stack
   pointer, R12 the conventional frame pointer), condition flags set by
   cmp/test, cmov/setcc, a hardware [loop] instruction, inline jump
   tables, and 4-lane vector registers V0..V7.

   Code addresses are byte offsets into the text section.  Data lives in
   a flat word-addressed memory; data symbols are indices into the
   binary's symbol table.  Frame accesses are offsets (in words) from the
   frame base, which is either the frame pointer or the stack pointer
   (when -fomit-frame-pointer is active). *)

type arch = X86_32 | X86_64 | Arm | Mips

let arch_name = function
  | X86_32 -> "x86-32"
  | X86_64 -> "x86-64"
  | Arm -> "arm"
  | Mips -> "mips"

let all_arches = [ X86_32; X86_64; Arm; Mips ]

(* the inverse of [arch_name]; raises [Not_found] *)
let arch_of_name name = List.find (fun a -> arch_name a = name) all_arches

(* General registers available to the allocator per architecture; the VM
   always has 16.  R13 = SP, R12 = FP by convention. *)
let register_count = function
  | X86_32 -> 8
  | X86_64 | Arm | Mips -> 16

let sp = 13

let fp = 12

type alu =
  | Aadd
  | Asub
  | Amul
  | Adiv
  | Amod
  | Aand
  | Aor
  | Axor
  | Ashl
  | Ashr

type cond = Ceq | Cne | Clt | Cle | Cgt | Cge

type fbase = FP_rel | SP_rel

type operand = Oreg of int | Oimm of int

type insn =
  | Imov of int * operand
  | Ialu of alu * int * int * operand  (** dst = a ⊕ b *)
  | Ineg of int * int
  | Inot of int * int
  | Icmp of int * operand  (** set flags from a − b *)
  | Itest of int * int  (** flags from a & b *)
  | Isetcc of cond * int
  | Icmov of cond * int * operand
  | Ijmp of int
  | Ijcc of cond * int
  | Ijtab of int * int list  (** indexed jump: reg selects a target *)
  | Iloop of int * int  (** dec reg; jump if non-zero *)
  | Ild of int * int * operand  (** dst = data\[sym + idx\] *)
  | Ist of int * operand * operand  (** data\[sym + idx\] = v *)
  | Ildf of int * fbase * int * operand
      (** dst = frame\[base + off + idx\]; idx may be Oimm 0 *)
  | Istf of fbase * int * operand * operand
  | Ipush of operand
  | Ipop of int
  | Icall of int  (** function id *)
  | Icallr of int  (** indirect call through register *)
  | Ila of int * int  (** load function address (id) into register *)
  | Iret
  | Ivld of int * int * operand  (** vector load from data symbol *)
  | Ivst of int * operand * int
  | Ivalu of alu * int * int * int
  | Ivsplat of int * operand
  | Ivpack of int * operand * operand * operand * operand
  | Ivred of alu * int * int
  | Ivldf of int * fbase * int * operand  (** vector load from frame *)
  | Ivstf of fbase * int * operand * int
  | Iprint of operand
  | Iprintc of operand
  | Iread of int * operand
  | Ilen of int
  | Inop
  (* compact forms produced by the peephole pass (-fpeephole2) *)
  | Iinc of int
  | Idec of int
  | Ixorz of int  (** xor r, r — the idiomatic zeroing *)
  | Ijmpf of int
      (** tail jump to a function: transfers control without pushing a
          return address (tail-call optimization) *)

let alu_name = function
  | Aadd -> "add"
  | Asub -> "sub"
  | Amul -> "mul"
  | Adiv -> "div"
  | Amod -> "mod"
  | Aand -> "and"
  | Aor -> "or"
  | Axor -> "xor"
  | Ashl -> "shl"
  | Ashr -> "shr"

let cond_name = function
  | Ceq -> "eq"
  | Cne -> "ne"
  | Clt -> "lt"
  | Cle -> "le"
  | Cgt -> "gt"
  | Cge -> "ge"

let operand_to_string = function
  | Oreg r -> Printf.sprintf "r%d" r
  | Oimm n -> Printf.sprintf "$%d" n

let fbase_name = function FP_rel -> "fp" | SP_rel -> "sp"

let to_string i =
  let op = operand_to_string in
  match i with
  | Imov (d, s) -> Printf.sprintf "mov r%d, %s" d (op s)
  | Ialu (a, d, x, y) ->
    Printf.sprintf "%s r%d, r%d, %s" (alu_name a) d x (op y)
  | Ineg (d, x) -> Printf.sprintf "neg r%d, r%d" d x
  | Inot (d, x) -> Printf.sprintf "not r%d, r%d" d x
  | Icmp (a, b) -> Printf.sprintf "cmp r%d, %s" a (op b)
  | Itest (a, b) -> Printf.sprintf "test r%d, r%d" a b
  | Isetcc (c, d) -> Printf.sprintf "set%s r%d" (cond_name c) d
  | Icmov (c, d, s) -> Printf.sprintf "cmov%s r%d, %s" (cond_name c) d (op s)
  | Ijmp t -> Printf.sprintf "jmp %#x" t
  | Ijcc (c, t) -> Printf.sprintf "j%s %#x" (cond_name c) t
  | Ijtab (r, ts) ->
    Printf.sprintf "jtab r%d, [%s]" r
      (String.concat "; " (List.map (Printf.sprintf "%#x") ts))
  | Iloop (r, t) -> Printf.sprintf "loop r%d, %#x" r t
  | Ild (d, s, i) -> Printf.sprintf "ld r%d, sym%d[%s]" d s (op i)
  | Ist (s, i, v) -> Printf.sprintf "st sym%d[%s], %s" s (op i) (op v)
  | Ildf (d, b, o, i) ->
    Printf.sprintf "ldf r%d, %s[%d+%s]" d (fbase_name b) o (op i)
  | Istf (b, o, i, v) ->
    Printf.sprintf "stf %s[%d+%s], %s" (fbase_name b) o (op i) (op v)
  | Ipush s -> Printf.sprintf "push %s" (op s)
  | Ipop d -> Printf.sprintf "pop r%d" d
  | Icall fid -> Printf.sprintf "call f%d" fid
  | Icallr r -> Printf.sprintf "call *r%d" r
  | Ila (d, fid) -> Printf.sprintf "la r%d, f%d" d fid
  | Iret -> "ret"
  | Ivld (d, s, i) -> Printf.sprintf "vld v%d, sym%d[%s]" d s (op i)
  | Ivst (s, i, v) -> Printf.sprintf "vst sym%d[%s], v%d" s (op i) v
  | Ivalu (a, d, x, y) -> Printf.sprintf "v%s v%d, v%d, v%d" (alu_name a) d x y
  | Ivsplat (d, s) -> Printf.sprintf "vsplat v%d, %s" d (op s)
  | Ivpack (d, a, b, c, e) ->
    Printf.sprintf "vpack v%d, %s, %s, %s, %s" d (op a) (op b) (op c) (op e)
  | Ivred (a, d, v) -> Printf.sprintf "vred_%s r%d, v%d" (alu_name a) d v
  | Ivldf (d, b, o, i) ->
    Printf.sprintf "vldf v%d, %s[%d+%s]" d (fbase_name b) o (op i)
  | Ivstf (b, o, i, v) ->
    Printf.sprintf "vstf %s[%d+%s], v%d" (fbase_name b) o (op i) v
  | Iprint s -> Printf.sprintf "print %s" (op s)
  | Iprintc s -> Printf.sprintf "printc %s" (op s)
  | Iread (d, i) -> Printf.sprintf "read r%d, %s" d (op i)
  | Ilen d -> Printf.sprintf "len r%d" d
  | Inop -> "nop"
  | Iinc r -> Printf.sprintf "inc r%d" r
  | Idec r -> Printf.sprintf "dec r%d" r
  | Ixorz r -> Printf.sprintf "xor r%d, r%d" r r
  | Ijmpf fid -> Printf.sprintf "jmpf f%d" fid
