open Isa.Insn

type result = {
  output : Vir.Interp.output_item list;
  return_value : int;
  steps : int;
}

exception Trap of string

exception Out_of_fuel

let trapf fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let eval_alu op a b =
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

let cond_holds c a b =
  match c with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

let sentinel = -1

(* words held when a run starts; the corpus programs touch a few
   thousand *)
let initial_stack_words = 4096

let run_function ?(fuel = 100_000_000) ?(stack_words = 1 lsl 20)
    (bin : Isa.Binary.t) ~fid ~args ~input =
  let insns = Array.of_list (Isa.Codec.decode_all bin.arch bin.text) in
  let index_of_offset = Hashtbl.create (Array.length insns) in
  Array.iteri
    (fun i (off, _) -> Hashtbl.replace index_of_offset off i)
    insns;
  let goto off =
    match Hashtbl.find_opt index_of_offset off with
    | Some i -> i
    | None -> trapf "jump to unaligned offset %#x" off
  in
  let regs = Array.make 16 0 in
  let vregs = Array.init 8 (fun _ -> Array.make 4 0) in
  let data = Array.copy bin.data_words in
  (* The stack is the word range [0, stack_words), but only its top
     [!lo, stack_words) is held, in [!seg] at index [addr - !lo].  A
     write below [!lo] grows the segment downwards by doubling; a read
     below it sees the 0 every untouched word holds. *)
  let seg = ref (Array.make (min initial_stack_words stack_words) 0) in
  let lo = ref (stack_words - Array.length !seg) in
  let check_stack addr =
    if addr < 0 || addr >= stack_words then trapf "stack access at %d" addr
  in
  let load addr =
    check_stack addr;
    if addr < !lo then 0 else !seg.(addr - !lo)
  in
  let store addr v =
    check_stack addr;
    if addr < !lo then begin
      let old = !seg in
      let size = ref (2 * Array.length old) in
      while stack_words - !size > addr do
        size := 2 * !size
      done;
      let size = min !size stack_words in
      let grown = Array.make size 0 in
      Array.blit old 0 grown (size - Array.length old) (Array.length old);
      seg := grown;
      lo := stack_words - size
    end;
    !seg.(addr - !lo) <- v
  in
  let flag_a = ref 0 and flag_b = ref 0 in
  let out_rev = ref [] in
  let steps = ref 0 in
  let fuel = ref fuel in
  (* arguments for the entry function sit above the sentinel return
     address as a caller leaves them: the first argument nearest it *)
  let nargs = List.length args in
  List.iteri (fun i v -> store (stack_words - nargs + i) v) args;
  regs.(Isa.Insn.sp) <- stack_words - 1 - nargs;
  store (stack_words - 1 - nargs) sentinel;
  let operand = function Oreg r -> regs.(r) | Oimm n -> n in
  let data_at addr =
    if addr < 0 || addr >= Array.length data then
      trapf "data access at %d" addr;
    addr
  in
  let push v =
    let sp' = regs.(Isa.Insn.sp) - 1 in
    if sp' < 0 then trapf "stack overflow";
    regs.(Isa.Insn.sp) <- sp';
    store sp' v
  in
  let pop () =
    let sp' = regs.(Isa.Insn.sp) in
    if sp' >= stack_words then trapf "stack underflow";
    regs.(Isa.Insn.sp) <- sp' + 1;
    load sp'
  in
  let return_to next =
    if next < Array.length insns then fst insns.(next)
    else String.length bin.text
  in
  let frame_addr base off idx =
    let b =
      match base with
      | FP_rel -> regs.(Isa.Insn.fp)
      | SP_rel -> regs.(Isa.Insn.sp)
    in
    b + off + idx
  in
  let sym_base s =
    if s < 0 || s >= Array.length bin.symbols then trapf "bad symbol %d" s;
    let _, base, _ = bin.symbols.(s) in
    base
  in
  let entry_of fid =
    if fid < 0 || fid >= Array.length bin.functions then
      trapf "bad function id %d" fid;
    let _, addr, _ = bin.functions.(fid) in
    addr
  in
  let pc = ref (goto (entry_of fid)) in
  let running = ref true in
  while !running do
    if !fuel <= 0 then raise Out_of_fuel;
    decr fuel;
    incr steps;
    if !pc < 0 || !pc >= Array.length insns then trapf "pc out of text";
    let _, insn = insns.(!pc) in
    let next = !pc + 1 in
    (match insn with
    | Imov (d, s) ->
      regs.(d) <- operand s;
      pc := next
    | Ialu (op, d, a, b) ->
      regs.(d) <- eval_alu op regs.(a) (operand b);
      pc := next
    | Ineg (d, a) ->
      regs.(d) <- -regs.(a);
      pc := next
    | Inot (d, a) ->
      regs.(d) <- lnot regs.(a);
      pc := next
    | Icmp (a, b) ->
      flag_a := regs.(a);
      flag_b := operand b;
      pc := next
    | Itest (a, b) ->
      flag_a := regs.(a) land regs.(b);
      flag_b := 0;
      pc := next
    | Isetcc (c, d) ->
      regs.(d) <- (if cond_holds c !flag_a !flag_b then 1 else 0);
      pc := next
    | Icmov (c, d, s) ->
      if cond_holds c !flag_a !flag_b then regs.(d) <- operand s;
      pc := next
    | Ijmp t -> pc := goto t
    | Ijcc (c, t) ->
      if cond_holds c !flag_a !flag_b then pc := goto t else pc := next
    | Ijtab (r, targets) ->
      let idx = regs.(r) in
      let n = List.length targets in
      if idx < 0 || idx >= n then trapf "jump table index %d of %d" idx n;
      pc := goto (List.nth targets idx)
    | Iloop (r, t) ->
      regs.(r) <- regs.(r) - 1;
      if regs.(r) <> 0 then pc := goto t else pc := next
    | Ild (d, s, i) ->
      regs.(d) <- data.(data_at (sym_base s + operand i));
      pc := next
    | Ist (s, i, v) ->
      data.(data_at (sym_base s + operand i)) <- operand v;
      pc := next
    | Ildf (d, base, off, i) ->
      regs.(d) <- load (frame_addr base off (operand i));
      pc := next
    | Istf (base, off, i, v) ->
      store (frame_addr base off (operand i)) (operand v);
      pc := next
    | Ipush s ->
      push (operand s);
      pc := next
    | Ipop d ->
      regs.(d) <- pop ();
      pc := next
    | Icall fid ->
      push (return_to next);
      pc := goto (entry_of fid)
    | Icallr r ->
      push (return_to next);
      pc := goto regs.(r)
    | Ila (d, fid) ->
      regs.(d) <- entry_of fid;
      pc := next
    | Iret ->
      let return_to = pop () in
      if return_to = sentinel then running := false else pc := goto return_to
    | Ijmpf fid -> pc := goto (entry_of fid)
    | Ivld (d, s, i) ->
      let base = sym_base s + operand i in
      for k = 0 to 3 do
        vregs.(d).(k) <- data.(data_at (base + k))
      done;
      pc := next
    | Ivst (s, i, v) ->
      let base = sym_base s + operand i in
      for k = 0 to 3 do
        data.(data_at (base + k)) <- vregs.(v).(k)
      done;
      pc := next
    | Ivalu (op, d, a, b) ->
      for k = 0 to 3 do
        vregs.(d).(k) <- eval_alu op vregs.(a).(k) vregs.(b).(k)
      done;
      pc := next
    | Ivsplat (d, s) ->
      let v = operand s in
      for k = 0 to 3 do
        vregs.(d).(k) <- v
      done;
      pc := next
    | Ivpack (d, a, b, c, e) ->
      vregs.(d).(0) <- operand a;
      vregs.(d).(1) <- operand b;
      vregs.(d).(2) <- operand c;
      vregs.(d).(3) <- operand e;
      pc := next
    | Ivred (op, d, v) ->
      let x = vregs.(v) in
      regs.(d) <- eval_alu op (eval_alu op x.(0) x.(1)) (eval_alu op x.(2) x.(3));
      pc := next
    | Ivldf (d, base, off, i) ->
      let a = frame_addr base off (operand i) in
      for k = 0 to 3 do
        vregs.(d).(k) <- load (a + k)
      done;
      pc := next
    | Ivstf (base, off, i, v) ->
      let a = frame_addr base off (operand i) in
      for k = 0 to 3 do
        store (a + k) vregs.(v).(k)
      done;
      pc := next
    | Iprint s ->
      out_rev := Vir.Interp.Out_int (operand s) :: !out_rev;
      pc := next
    | Iprintc s ->
      out_rev := Vir.Interp.Out_char (operand s) :: !out_rev;
      pc := next
    | Iread (d, i) ->
      let idx = operand i in
      regs.(d) <-
        (if idx >= 0 && idx < Array.length input then input.(idx) else 0);
      pc := next
    | Ilen d ->
      regs.(d) <- Array.length input;
      pc := next
    | Inop -> pc := next
    | Iinc r ->
      regs.(r) <- regs.(r) + 1;
      pc := next
    | Idec r ->
      regs.(r) <- regs.(r) - 1;
      pc := next
    | Ixorz r ->
      regs.(r) <- 0;
      pc := next)
  done;
  Telemetry.add_count "vm.runs";
  Telemetry.add_count ~by:!steps "vm.steps";
  {
    output = List.rev !out_rev;
    return_value = regs.(bin.ret_reg);
    steps = !steps;
  }

let run ?fuel ?stack_words (bin : Isa.Binary.t) ~input =
  run_function ?fuel ?stack_words bin ~fid:bin.entry ~args:[] ~input
