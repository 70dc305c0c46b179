open Isa.Insn

type result = {
  output : Vir.Interp.output_item list;
  return_value : int;
  steps : int;
}

exception Trap of string

exception Out_of_fuel

let trapf fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let[@inline] eval_alu op a b =
  match op with
  | Aadd -> a + b
  | Asub -> a - b
  | Amul -> a * b
  | Adiv -> if b = 0 then 0 else a / b
  | Amod -> if b = 0 then 0 else a mod b
  | Aand -> a land b
  | Aor -> a lor b
  | Axor -> a lxor b
  | Ashl -> a lsl (b land 63)
  | Ashr -> a asr (b land 63)

let[@inline] cond_holds c a b =
  match c with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

(* An instruction with its operands resolved: branch and call targets
   are instruction indices, data symbols are base words, [La]'s function
   is its entry byte offset and [Call]/[Callr] carry the byte offset they
   return to.  Registers are known to be in range.  Return addresses and
   function addresses stay byte offsets, since a program can see them. *)
type op =
  | Mov of int * operand
  | Alu of alu * int * int * operand
  | Neg of int * int
  | Not of int * int
  | Cmp of int * operand
  | Test of int * int
  | Setcc of cond * int
  | Cmov of cond * int * operand
  | Jmp of int
  | Jcc of cond * int
  | Jtab of int * int array
  | Loop of int * int
  | Ld of int * int * operand
  | St of int * operand * operand
  | Ldf of int * fbase * int * operand
  | Stf of fbase * int * operand * operand
  | Push of operand
  | Pop of int
  | Call of int * int
  | Callr of int * int
  | La of int * int
  | Ret
  | Vld of int * int * operand
  | Vst of int * operand * int
  | Valu of alu * int * int * int
  | Vsplat of int * operand
  | Vpack of int * operand * operand * operand * operand
  | Vred of alu * int * int
  | Vldf of int * fbase * int * operand
  | Vstf of fbase * int * operand * int
  | Print of operand
  | Printc of operand
  | Read of int * operand
  | Len of int
  | Nop
  | Inc of int
  | Dec of int
  | Xorz of int
  | Fault of string
      (** an instruction that traps when it executes: a bad register,
          symbol or function operand, or the end of the text *)
  | Landing of string
      (** where a static jump or call to a bad target lands: the trap
          belongs to the jump, so it is raised without a step or fuel *)

type prepared = {
  code : op array;
  index : int array;  (** byte offset -> instruction index, or -1 *)
  entries : int array;  (** function id -> entry instruction index *)
  data_words : int array;
  entry : int;
  ret_reg : int;
}

let nregs = 16

let nvregs = 8

exception Bad_operand of string

let prepare (bin : Isa.Binary.t) =
  let text_length = String.length bin.text in
  let decoded =
    (* [pos] is where the sweep decodes next, so a decode error is
       reported at the offset it happened *)
    let acc = ref [] and pos = ref 0 in
    (try
       Isa.Codec.sweep bin.arch bin.text ~pos:0 ~stop:text_length
         (fun off insn next ->
           acc := (off, insn, next) :: !acc;
           pos := next)
     with Invalid_argument msg -> trapf "undecodable text at %#x: %s" !pos msg);
    Array.of_list (List.rev !acc)
  in
  let n = Array.length decoded in
  let index = Array.make (text_length + 1) (-1) in
  Array.iteri (fun i (off, _, _) -> index.(off) <- i) decoded;
  (* landing ops go after the end-of-text fault, one per message *)
  let landings = Hashtbl.create 4 and landing_rev = ref [] in
  let landing msg =
    match Hashtbl.find_opt landings msg with
    | Some i -> i
    | None ->
      let i = n + 1 + Hashtbl.length landings in
      Hashtbl.replace landings msg i;
      landing_rev := Landing msg :: !landing_rev;
      i
  in
  let target off =
    if off >= 0 && off < text_length && index.(off) >= 0 then index.(off)
    else landing (Printf.sprintf "jump to unaligned offset %#x" off)
  in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad_operand s)) fmt in
  let func fid =
    if fid < 0 || fid >= Array.length bin.functions then
      bad "bad function id %d" fid;
    let _, addr, _ = bin.functions.(fid) in
    addr
  in
  let entries =
    Array.init (Array.length bin.functions) (fun fid -> target (func fid))
  in
  let call fid =
    match func fid with
    | addr -> target addr
    | exception Bad_operand msg -> landing msg
  in
  let r x = if x < 0 || x >= nregs then bad "bad register %d" x else x in
  let v x =
    if x < 0 || x >= nvregs then bad "bad vector register %d" x else x
  in
  let o = function Oreg x -> Oreg (r x) | Oimm _ as i -> i in
  let sym s =
    if s < 0 || s >= Array.length bin.symbols then bad "bad symbol %d" s;
    let _, base, _ = bin.symbols.(s) in
    base
  in
  let resolve insn ~next =
    match insn with
    | Imov (d, s) -> Mov (r d, o s)
    | Ialu (op, d, a, b) -> Alu (op, r d, r a, o b)
    | Ineg (d, a) -> Neg (r d, r a)
    | Inot (d, a) -> Not (r d, r a)
    | Icmp (a, b) -> Cmp (r a, o b)
    | Itest (a, b) -> Test (r a, r b)
    | Isetcc (c, d) -> Setcc (c, r d)
    | Icmov (c, d, s) -> Cmov (c, r d, o s)
    | Ijmp t -> Jmp (target t)
    | Ijcc (c, t) -> Jcc (c, target t)
    | Ijtab (x, ts) -> Jtab (r x, Array.of_list (List.map target ts))
    | Iloop (x, t) -> Loop (r x, target t)
    | Ild (d, s, i) -> Ld (r d, sym s, o i)
    | Ist (s, i, x) -> St (sym s, o i, o x)
    | Ildf (d, base, off, i) -> Ldf (r d, base, off, o i)
    | Istf (base, off, i, x) -> Stf (base, off, o i, o x)
    | Ipush s -> Push (o s)
    | Ipop d -> Pop (r d)
    | Icall fid -> Call (next, call fid)
    | Icallr x -> Callr (next, r x)
    | Ila (d, fid) -> La (r d, func fid)
    | Iret -> Ret
    | Ijmpf fid -> Jmp (call fid)
    | Ivld (d, s, i) -> Vld (v d, sym s, o i)
    | Ivst (s, i, x) -> Vst (sym s, o i, v x)
    | Ivalu (op, d, a, b) -> Valu (op, v d, v a, v b)
    | Ivsplat (d, s) -> Vsplat (v d, o s)
    | Ivpack (d, a, b, c, e) -> Vpack (v d, o a, o b, o c, o e)
    | Ivred (op, d, x) -> Vred (op, r d, v x)
    | Ivldf (d, base, off, i) -> Vldf (v d, base, off, o i)
    | Ivstf (base, off, i, x) -> Vstf (base, off, o i, v x)
    | Iprint s -> Print (o s)
    | Iprintc s -> Printc (o s)
    | Iread (d, i) -> Read (r d, o i)
    | Ilen d -> Len (r d)
    | Inop -> Nop
    | Iinc x -> Inc (r x)
    | Idec x -> Dec (r x)
    | Ixorz x -> Xorz (r x)
  in
  let body =
    Array.map
      (fun (_, insn, next) ->
        try resolve insn ~next with Bad_operand msg -> Fault msg)
      decoded
  in
  let code =
    Array.concat
      [
        body;
        [| Fault "pc out of text" |];
        Array.of_list (List.rev !landing_rev);
      ]
  in
  {
    code;
    index;
    entries;
    data_words = bin.data_words;
    entry = bin.entry;
    ret_reg = bin.ret_reg;
  }

let sentinel = -1

(* words held when a run starts; the corpus programs touch a few
   thousand *)
let initial_stack_words = 4096

(* The mutable state of one run.  The stack is the word range
   [0, stack_words), but only its top [lo, stack_words) is held, in [seg]
   at index [addr - lo].  A write below [lo] grows the segment downwards
   by doubling; a read below it sees the 0 every untouched word holds. *)
type state = {
  regs : int array;
  vregs : int array;  (** lane [k] of [Vd] at [4 * d + k] *)
  data : int array;
  stack_words : int;
  mutable seg : int array;
  mutable lo : int;
  mutable flag_a : int;
  mutable flag_b : int;
  mutable out_rev : Vir.Interp.output_item list;
  input : int array;
}

(* The accessors the execute loop calls on most steps are inlined: the
   native compiler does not inline them by itself, and inlining them cut
   the time per step on corpus O0 runs by about a third. *)
let[@inline] check_stack st addr =
  if addr < 0 || addr >= st.stack_words then trapf "stack access at %d" addr

let[@inline] load st addr =
  check_stack st addr;
  if addr < st.lo then 0 else st.seg.(addr - st.lo)

(* hold the stack down to [addr] *)
let grow st addr =
  let old = st.seg in
  let size = ref (2 * Array.length old) in
  while st.stack_words - !size > addr do
    size := 2 * !size
  done;
  let size = min !size st.stack_words in
  let grown = Array.make size 0 in
  Array.blit old 0 grown (size - Array.length old) (Array.length old);
  st.seg <- grown;
  st.lo <- st.stack_words - size

let[@inline] store st addr v =
  check_stack st addr;
  if addr < st.lo then grow st addr;
  st.seg.(addr - st.lo) <- v

let[@inline] push st v =
  let sp' = st.regs.(sp) - 1 in
  if sp' < 0 then trapf "stack overflow";
  st.regs.(sp) <- sp';
  store st sp' v

let[@inline] pop st =
  let sp' = st.regs.(sp) in
  if sp' >= st.stack_words then trapf "stack underflow";
  st.regs.(sp) <- sp' + 1;
  load st sp'

let[@inline] operand st = function Oreg r -> st.regs.(r) | Oimm n -> n

let[@inline] frame_addr st base off idx =
  (match base with FP_rel -> st.regs.(fp) | SP_rel -> st.regs.(sp)) + off + idx

let[@inline] data_at st addr =
  if addr < 0 || addr >= Array.length st.data then
    trapf "data access at %d" addr;
  addr

let goto p off =
  if off < 0 || off >= Array.length p.index || p.index.(off) < 0 then
    trapf "jump to unaligned offset %#x" off;
  p.index.(off)

(* The execute loop.  [pc] is an instruction index and [fuel] the
   instructions still allowed; it returns the fuel left when the entry
   function returns to the sentinel. *)
let rec exec p st pc fuel =
  if fuel <= 0 then
    match p.code.(pc) with
    | Landing msg -> raise (Trap msg)
    | _ -> raise Out_of_fuel
  else
    let fuel = fuel - 1 and next = pc + 1 in
    match p.code.(pc) with
    | Mov (d, s) ->
      st.regs.(d) <- operand st s;
      exec p st next fuel
    | Alu (op, d, a, b) ->
      st.regs.(d) <- eval_alu op st.regs.(a) (operand st b);
      exec p st next fuel
    | Neg (d, a) ->
      st.regs.(d) <- -st.regs.(a);
      exec p st next fuel
    | Not (d, a) ->
      st.regs.(d) <- lnot st.regs.(a);
      exec p st next fuel
    | Cmp (a, b) ->
      st.flag_a <- st.regs.(a);
      st.flag_b <- operand st b;
      exec p st next fuel
    | Test (a, b) ->
      st.flag_a <- st.regs.(a) land st.regs.(b);
      st.flag_b <- 0;
      exec p st next fuel
    | Setcc (c, d) ->
      st.regs.(d) <- (if cond_holds c st.flag_a st.flag_b then 1 else 0);
      exec p st next fuel
    | Cmov (c, d, s) ->
      if cond_holds c st.flag_a st.flag_b then st.regs.(d) <- operand st s;
      exec p st next fuel
    | Jmp t -> exec p st t fuel
    | Jcc (c, t) ->
      exec p st (if cond_holds c st.flag_a st.flag_b then t else next) fuel
    | Jtab (r, targets) ->
      let idx = st.regs.(r) in
      let n = Array.length targets in
      if idx < 0 || idx >= n then trapf "jump table index %d of %d" idx n;
      exec p st targets.(idx) fuel
    | Loop (r, t) ->
      st.regs.(r) <- st.regs.(r) - 1;
      exec p st (if st.regs.(r) <> 0 then t else next) fuel
    | Ld (d, base, i) ->
      st.regs.(d) <- st.data.(data_at st (base + operand st i));
      exec p st next fuel
    | St (base, i, v) ->
      st.data.(data_at st (base + operand st i)) <- operand st v;
      exec p st next fuel
    | Ldf (d, base, off, i) ->
      st.regs.(d) <- load st (frame_addr st base off (operand st i));
      exec p st next fuel
    | Stf (base, off, i, v) ->
      store st (frame_addr st base off (operand st i)) (operand st v);
      exec p st next fuel
    | Push s ->
      push st (operand st s);
      exec p st next fuel
    | Pop d ->
      st.regs.(d) <- pop st;
      exec p st next fuel
    | Call (return_to, t) ->
      push st return_to;
      exec p st t fuel
    | Callr (return_to, r) ->
      push st return_to;
      exec p st (goto p st.regs.(r)) fuel
    | La (d, addr) ->
      st.regs.(d) <- addr;
      exec p st next fuel
    | Ret ->
      let return_to = pop st in
      if return_to = sentinel then fuel else exec p st (goto p return_to) fuel
    | Vld (d, base, i) ->
      let a = base + operand st i in
      for k = 0 to 3 do
        st.vregs.((4 * d) + k) <- st.data.(data_at st (a + k))
      done;
      exec p st next fuel
    | Vst (base, i, v) ->
      let a = base + operand st i in
      for k = 0 to 3 do
        st.data.(data_at st (a + k)) <- st.vregs.((4 * v) + k)
      done;
      exec p st next fuel
    | Valu (op, d, a, b) ->
      for k = 0 to 3 do
        st.vregs.((4 * d) + k) <-
          eval_alu op st.vregs.((4 * a) + k) st.vregs.((4 * b) + k)
      done;
      exec p st next fuel
    | Vsplat (d, s) ->
      let v = operand st s in
      Array.fill st.vregs (4 * d) 4 v;
      exec p st next fuel
    | Vpack (d, a, b, c, e) ->
      st.vregs.(4 * d) <- operand st a;
      st.vregs.((4 * d) + 1) <- operand st b;
      st.vregs.((4 * d) + 2) <- operand st c;
      st.vregs.((4 * d) + 3) <- operand st e;
      exec p st next fuel
    | Vred (op, d, v) ->
      let x = 4 * v in
      st.regs.(d) <-
        eval_alu op
          (eval_alu op st.vregs.(x) st.vregs.(x + 1))
          (eval_alu op st.vregs.(x + 2) st.vregs.(x + 3));
      exec p st next fuel
    | Vldf (d, base, off, i) ->
      let a = frame_addr st base off (operand st i) in
      for k = 0 to 3 do
        st.vregs.((4 * d) + k) <- load st (a + k)
      done;
      exec p st next fuel
    | Vstf (base, off, i, v) ->
      let a = frame_addr st base off (operand st i) in
      for k = 0 to 3 do
        store st (a + k) st.vregs.((4 * v) + k)
      done;
      exec p st next fuel
    | Print s ->
      st.out_rev <- Vir.Interp.Out_int (operand st s) :: st.out_rev;
      exec p st next fuel
    | Printc s ->
      st.out_rev <- Vir.Interp.Out_char (operand st s) :: st.out_rev;
      exec p st next fuel
    | Read (d, i) ->
      let idx = operand st i in
      st.regs.(d) <-
        (if idx >= 0 && idx < Array.length st.input then st.input.(idx) else 0);
      exec p st next fuel
    | Len d ->
      st.regs.(d) <- Array.length st.input;
      exec p st next fuel
    | Nop -> exec p st next fuel
    | Inc r ->
      st.regs.(r) <- st.regs.(r) + 1;
      exec p st next fuel
    | Dec r ->
      st.regs.(r) <- st.regs.(r) - 1;
      exec p st next fuel
    | Xorz r ->
      st.regs.(r) <- 0;
      exec p st next fuel
    | Fault msg | Landing msg -> raise (Trap msg)

let execute_function ?(fuel = 100_000_000) ?(stack_words = 1 lsl 20) p ~fid
    ~args ~input =
  let held = min initial_stack_words stack_words in
  let st =
    {
      regs = Array.make nregs 0;
      vregs = Array.make (4 * nvregs) 0;
      data = Array.copy p.data_words;
      stack_words;
      seg = Array.make held 0;
      lo = stack_words - held;
      flag_a = 0;
      flag_b = 0;
      out_rev = [];
      input;
    }
  in
  (* arguments for the entry function sit above the sentinel return
     address as a caller leaves them: the first argument nearest it *)
  let nargs = List.length args in
  List.iteri (fun i v -> store st (stack_words - nargs + i) v) args;
  st.regs.(sp) <- stack_words - 1 - nargs;
  store st (stack_words - 1 - nargs) sentinel;
  if fid < 0 || fid >= Array.length p.entries then
    trapf "bad function id %d" fid;
  let left = exec p st p.entries.(fid) fuel in
  if p.ret_reg < 0 || p.ret_reg >= nregs then
    trapf "bad return register %d" p.ret_reg;
  let steps = fuel - left in
  Telemetry.add_count "vm.runs";
  Telemetry.add_count ~by:steps "vm.steps";
  { output = List.rev st.out_rev; return_value = st.regs.(p.ret_reg); steps }

let execute p ~input = execute_function p ~fid:p.entry ~args:[] ~input

let run ?fuel ?stack_words bin ~input =
  let p = prepare bin in
  execute_function ?fuel ?stack_words p ~fid:p.entry ~args:[] ~input
