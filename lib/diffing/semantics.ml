open Isa.Insn

(* Symbolic expressions.  [Input k] is the k-th distinct input location
   read by the block, numbered in first-read order — this is what makes
   summaries register-allocation independent. *)
type expr =
  | Num of int
  | Input of int
  | Op of string * expr list
  | Callres of int  (** result of the k-th call in the block *)
  | Opaque of int  (** size-capped subtree, by hash *)

type effect =
  | Estore of string * expr * expr
  | Epush of expr
  | Ecall of int  (** callee function id *)
  | Ecallr of expr
  | Eprint of expr
  | Eprintc of expr

type summary = {
  outputs : (string * expr) list;  (** canonical location → value, sorted *)
  effects : effect list;
  branch : expr option;  (** normalized branch condition, if conditional *)
  out_regs : int list;  (** concrete registers written (sorted) *)
}

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let max_nodes = 40

let rec size = function
  | Num _ | Input _ | Callres _ | Opaque _ -> 1
  | Op (_, args) -> 1 + List.fold_left (fun a e -> a + size e) 0 args

let commutative = function
  | "add" | "mul" | "and" | "or" | "xor" | "eq" | "ne" -> true
  | _ -> false

let alu_str = alu_name

let mk_op name args =
  let args =
    if commutative name then List.sort compare args else args
  in
  (* constant folding for fully-constant operands *)
  let folded =
    match (name, args) with
    | "add", [ Num a; Num b ] -> Some (Num (a + b))
    | "sub", [ Num a; Num b ] -> Some (Num (a - b))
    | "mul", [ Num a; Num b ] -> Some (Num (a * b))
    | "and", [ Num a; Num b ] -> Some (Num (a land b))
    | "or", [ Num a; Num b ] -> Some (Num (a lor b))
    | "xor", [ Num a; Num b ] -> Some (Num (a lxor b))
    | "shl", [ Num a; Num b ] -> Some (Num (a lsl (b land 63)))
    | "shr", [ Num a; Num b ] -> Some (Num (a asr (b land 63)))
    | "add", [ Num 0; x ] | "add", [ x; Num 0 ] -> Some x
    | "sub", [ x; Num 0 ] -> Some x
    | "mul", [ Num 1; x ] | "mul", [ x; Num 1 ] -> Some x
    | _ -> None
  in
  match folded with
  | Some e -> e
  | None ->
    let e = Op (name, args) in
    if size e > max_nodes then Opaque (Hashtbl.hash e) else e

(* ------------------------------------------------------------------ *)
(* Symbolic machine state                                              *)
(* ------------------------------------------------------------------ *)

type flags = Fcmp of expr * expr | Ftest of expr | Fnone

type state = {
  regs : (int, expr) Hashtbl.t;
  vregs : (int, expr) Hashtbl.t;
  (* written memory (region, canonical idx) → value; reads check here
     first, then become Input-like loads *)
  mem : (string * expr, expr) Hashtbl.t;
  mutable inputs : (string * expr) list;  (** location key → Input index *)
  mutable flags : flags;
  mutable effects_rev : effect list;
  mutable ncalls : int;
  ret_reg : int;
}

let input_key_reg r = ("reg", Num r)

(* Get the Input index for a location, registering it on first read. *)
let input_of st key =
  let rec find i = function
    | [] -> None
    | k :: _ when k = key -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 (List.rev st.inputs) with
  | Some i -> Input i
  | None ->
    st.inputs <- key :: st.inputs;
    Input (List.length st.inputs - 1)

let read_reg st r =
  match Hashtbl.find_opt st.regs r with
  | Some e -> e
  | None -> input_of st (input_key_reg r)

let read_vreg st v =
  match Hashtbl.find_opt st.vregs v with
  | Some e -> e
  | None -> input_of st ("vreg", Num v)

let operand st = function
  | Oreg r -> read_reg st r
  | Oimm n -> Num n

let region_of_sym s = Printf.sprintf "sym%d" s

let region_of_fbase = function FP_rel -> "frame" | SP_rel -> "frame"

(* Frame addresses: fold base offset into the index expression.  FP- and
   SP-relative addressing land in the same region; offsets usually differ
   across layouts, which is fine — locations are canonicalized through
   the Input numbering on first read. *)
let frame_addr st base off idx =
  let base_sym =
    match base with
    | FP_rel -> input_of st (input_key_reg Isa.Insn.fp)
    | SP_rel -> input_of st (input_key_reg Isa.Insn.sp)
  in
  mk_op "add" [ base_sym; mk_op "add" [ Num off; idx ] ]

let mem_read st region idx =
  match Hashtbl.find_opt st.mem (region, idx) with
  | Some v -> v
  | None ->
    (* reading memory this block has not written: a fresh input keyed by
       the location *)
    input_of st (region, idx)

let mem_write st region idx v =
  Hashtbl.replace st.mem (region, idx) v;
  st.effects_rev <- Estore (region, idx, v) :: st.effects_rev

let fresh_call_result st =
  let k = st.ncalls in
  st.ncalls <- k + 1;
  Callres k

let clobber_caller_saved st =
  (* calls may clobber r0-r3 and the scratches; the return value lands in
     the ABI register *)
  List.iter
    (fun r -> Hashtbl.replace st.regs r (mk_op "clobber" [ Num r; fresh_call_result st ]))
    [ 0; 1; 2; 3; 14; 15 ];
  Hashtbl.replace st.regs st.ret_reg (fresh_call_result st)

let cond_expr st cc =
  let name =
    match cc with
    | Ceq -> "eq"
    | Cne -> "ne"
    | Clt -> "lt"
    | Cle -> "le"
    | Cgt -> "gt"
    | Cge -> "ge"
  in
  match st.flags with
  | Fcmp (a, b) -> mk_op name [ a; b ]
  | Ftest e -> (
    (* test e; jcc — over a boolean e this is just e or its negation *)
    match cc with
    | Cne -> e
    | Ceq -> mk_op "not" [ e ]
    | Clt | Cle | Cgt | Cge -> mk_op name [ e; Num 0 ])
  | Fnone -> mk_op name [ input_of st ("flags", Num 0); Num 0 ]

let exec st i =
  match i with
  | Imov (d, s) -> Hashtbl.replace st.regs d (operand st s)
  | Ialu (a, d, x, y) ->
    Hashtbl.replace st.regs d
      (mk_op (alu_str a) [ read_reg st x; operand st y ])
  | Ineg (d, x) -> Hashtbl.replace st.regs d (mk_op "sub" [ Num 0; read_reg st x ])
  | Inot (d, x) -> Hashtbl.replace st.regs d (mk_op "not" [ read_reg st x ])
  | Icmp (a, b) -> st.flags <- Fcmp (read_reg st a, operand st b)
  | Itest (a, b) ->
    let ea = read_reg st a and eb = read_reg st b in
    st.flags <- (if ea = eb then Ftest ea else Ftest (mk_op "and" [ ea; eb ]))
  | Isetcc (c, d) -> Hashtbl.replace st.regs d (cond_expr st c)
  | Icmov (c, d, s) ->
    Hashtbl.replace st.regs d
      (mk_op "select" [ cond_expr st c; operand st s; read_reg st d ])
  | Ijmp _ | Ijcc (_, _) | Ijtab _ -> ()
  | Iloop (r, _) ->
    Hashtbl.replace st.regs r (mk_op "sub" [ read_reg st r; Num 1 ])
  | Ild (d, s, i) ->
    Hashtbl.replace st.regs d (mem_read st (region_of_sym s) (operand st i))
  | Ist (s, i, v) -> mem_write st (region_of_sym s) (operand st i) (operand st v)
  | Ildf (d, b, o, i) ->
    let addr = frame_addr st b o (operand st i) in
    Hashtbl.replace st.regs d (mem_read st (region_of_fbase b) addr)
  | Istf (b, o, i, v) ->
    let addr = frame_addr st b o (operand st i) in
    mem_write st (region_of_fbase b) addr (operand st v)
  | Ipush s -> st.effects_rev <- Epush (operand st s) :: st.effects_rev
  | Ipop d -> Hashtbl.replace st.regs d (fresh_call_result st)
  | Icall fid ->
    st.effects_rev <- Ecall fid :: st.effects_rev;
    clobber_caller_saved st
  | Icallr r ->
    st.effects_rev <- Ecallr (read_reg st r) :: st.effects_rev;
    clobber_caller_saved st
  | Ila (d, fid) -> Hashtbl.replace st.regs d (mk_op "funaddr" [ Num fid ])
  | Iret -> ()
  | Ijmpf fid -> st.effects_rev <- Ecall fid :: st.effects_rev
  | Ivld (d, s, i) ->
    Hashtbl.replace st.vregs d
      (mk_op "vld" [ mem_read st (region_of_sym s) (operand st i) ])
  | Ivst (s, i, v) ->
    mem_write st (region_of_sym s) (mk_op "vaddr" [ operand st i ])
      (read_vreg st v)
  | Ivalu (a, d, x, y) ->
    Hashtbl.replace st.vregs d
      (mk_op ("v" ^ alu_str a) [ read_vreg st x; read_vreg st y ])
  | Ivsplat (d, s) -> Hashtbl.replace st.vregs d (mk_op "vsplat" [ operand st s ])
  | Ivpack (d, a, b, c, e) ->
    Hashtbl.replace st.vregs d
      (mk_op "vpack" [ operand st a; operand st b; operand st c; operand st e ])
  | Ivred (a, d, v) ->
    Hashtbl.replace st.regs d (mk_op ("vred" ^ alu_str a) [ read_vreg st v ])
  | Ivldf (d, b, o, i) ->
    let addr = frame_addr st b o (operand st i) in
    Hashtbl.replace st.vregs d (mk_op "vld" [ mem_read st (region_of_fbase b) addr ])
  | Ivstf (b, o, i, v) ->
    let addr = frame_addr st b o (operand st i) in
    mem_write st (region_of_fbase b) (mk_op "vaddr" [ addr ]) (read_vreg st v)
  | Iprint s -> st.effects_rev <- Eprint (operand st s) :: st.effects_rev
  | Iprintc s -> st.effects_rev <- Eprintc (operand st s) :: st.effects_rev
  | Iread (d, i) ->
    Hashtbl.replace st.regs d (mk_op "inputword" [ operand st i ])
  | Ilen d -> Hashtbl.replace st.regs d (mk_op "inputlen" [])
  | Inop -> ()
  | Iinc r -> Hashtbl.replace st.regs r (mk_op "add" [ read_reg st r; Num 1 ])
  | Idec r -> Hashtbl.replace st.regs r (mk_op "sub" [ read_reg st r; Num 1 ])
  | Ixorz r -> Hashtbl.replace st.regs r (Num 0)

(* Rename the Input occurrences of one expression in first-occurrence
   order: each output/effect expression becomes independent of how many
   other inputs the surrounding block happened to read first.  Block
   merging and instruction reordering change block-level input numbering
   but not expression shape, so canonical summaries survive both. *)
let canon_expr e =
  let seen = Hashtbl.create 8 in
  let rec go e =
    match e with
    | Num _ | Opaque _ | Callres _ -> e
    | Input i ->
      (match Hashtbl.find_opt seen i with
      | Some j -> Input j
      | None ->
        let j = Hashtbl.length seen in
        Hashtbl.replace seen i j;
        Input j)
    | Op (name, args) -> Op (name, List.map go args)
  in
  go e

let canon_effect = function
  | Estore (r, i, v) -> Estore (r, canon_expr i, canon_expr v)
  | Epush e -> Epush (canon_expr e)
  | Ecall f -> Ecall f
  | Ecallr e -> Ecallr (canon_expr e)
  | Eprint e -> Eprint (canon_expr e)
  | Eprintc e -> Eprintc (canon_expr e)

(* A conditional branch and its negation are the same comparison with the
   targets swapped; which polarity the binary carries is pure layout
   (fallthrough direction).  Canonicalize to the smaller of the two
   representations. *)
let negate_expr = function
  | Op ("lt", args) -> Some (Op ("ge", args))
  | Op ("ge", args) -> Some (Op ("lt", args))
  | Op ("le", args) -> Some (Op ("gt", args))
  | Op ("gt", args) -> Some (Op ("le", args))
  | Op ("eq", args) -> Some (Op ("ne", args))
  | Op ("ne", args) -> Some (Op ("eq", args))
  | Op ("not", [ e ]) -> Some e
  | e -> Some (Op ("not", [ e ]))

let canon_branch e =
  match negate_expr e with
  | Some n -> if compare e n <= 0 then e else n
  | None -> e

let summarize ~ret_reg (b : Bcode.block) =
  let st =
    {
      regs = Hashtbl.create 16;
      vregs = Hashtbl.create 4;
      mem = Hashtbl.create 8;
      inputs = [];
      flags = Fnone;
      effects_rev = [];
      ncalls = 0;
      ret_reg;
    }
  in
  List.iter (exec st) b.insns;
  let branch =
    match List.rev b.insns with
    | Ijcc (c, _) :: _ -> Some (cond_expr st c)
    | Iloop (_, _) :: _ -> Some (mk_op "loopcond" [])
    | _ -> None
  in
  (* Canonical outputs: the *set* of distinct values the block computes
     into registers or private frame cells.  Identity copies (a location
     holding exactly an unmodified input) and call-clobber artifacts are
     dropped; where a value lives — register, spill slot, or -O0 local
     slot — is allocation noise, which is exactly what BinHunt's prover
     abstracts away when matching functionally equivalent blocks. *)
  let interesting e =
    match e with
    | Input _ -> false
    | Op ("clobber", _) -> false
    | Num _ | Op _ | Callres _ | Opaque _ -> true
  in
  let out_regs = ref [] in
  let outputs = ref [] in
  Hashtbl.iter
    (fun r e ->
      if r <> Isa.Insn.sp then begin
        out_regs := r :: !out_regs;
        if interesting e then outputs := e :: !outputs
      end)
    st.regs;
  Hashtbl.iter
    (fun (region, _) v ->
      if region = "frame" && interesting v then outputs := v :: !outputs)
    st.mem;
  (* observable effects only: frame stores are private state *)
  let effects =
    List.filter
      (function
        | Estore ("frame", _, _) -> false
        | Estore _ | Epush _ | Ecall _ | Ecallr _ | Eprint _ | Eprintc _ ->
          true)
      (List.rev st.effects_rev)
  in
  let sorted_outputs =
    List.sort_uniq compare (List.map (fun e -> ("out", canon_expr e)) !outputs)
  in
  {
    outputs = sorted_outputs;
    effects = List.map canon_effect effects;
    branch = Option.map (fun e -> canon_branch (canon_expr e)) branch;
    out_regs = List.sort compare !out_regs;
  }

let equivalent a b =
  a.outputs = b.outputs && a.effects = b.effects && a.branch = b.branch

let same_registers a b = a.out_regs = b.out_regs

let fingerprint s = Hashtbl.hash (s.outputs, s.effects, s.branch)

(* ------------------------------------------------------------------ *)
(* Concrete I/O sampling (Multi-MH style)                              *)
(* ------------------------------------------------------------------ *)

let rec eval_expr rng_values = function
  | Num n -> n
  | Input i ->
    if i < Array.length rng_values then rng_values.(i)
    else (i * 2654435761) land 0xFFFFFF
  | Op (name, args) ->
    let vs = List.map (eval_expr rng_values) args in
    let h = List.fold_left (fun acc v -> (acc * 1000003) + v) 0 vs in
    (match (name, vs) with
    | "add", [ a; b ] -> a + b
    | "sub", [ a; b ] -> a - b
    | "mul", [ a; b ] -> a * b
    | "div", [ a; b ] -> if b = 0 then 0 else a / b
    | "mod", [ a; b ] -> if b = 0 then 0 else a mod b
    | "and", [ a; b ] -> a land b
    | "or", [ a; b ] -> a lor b
    | "xor", [ a; b ] -> a lxor b
    | "shl", [ a; b ] -> a lsl (b land 63)
    | "shr", [ a; b ] -> a asr (b land 63)
    | "not", [ a ] -> lnot a
    | "eq", [ a; b ] -> if a = b then 1 else 0
    | "ne", [ a; b ] -> if a <> b then 1 else 0
    | "lt", [ a; b ] -> if a < b then 1 else 0
    | "le", [ a; b ] -> if a <= b then 1 else 0
    | "gt", [ a; b ] -> if a > b then 1 else 0
    | "ge", [ a; b ] -> if a >= b then 1 else 0
    | "select", [ c; x; y ] -> if c <> 0 then x else y
    | _ -> Hashtbl.hash (name, h) land 0xFFFFFF)
  | Callres k -> (k * 40503) land 0xFFFF
  | Opaque h -> h land 0xFFFFFF

let output_prints s =
  (* summaries are already canonical per expression *)
  List.map (fun (_, e) -> Hashtbl.hash e) s.outputs
  @ List.map (fun eff -> Hashtbl.hash ("eff", eff)) s.effects
  @ (match s.branch with
    | None -> []
    | Some b -> [ Hashtbl.hash ("br", b) ])

let sample_per_output ~ret_reg ~seed (b : Bcode.block) =
  let s = summarize ~ret_reg b in
  let rng = Util.Rng.create seed in
  let valuations =
    Array.init 4 (fun _ -> Array.init 16 (fun _ -> Util.Rng.int rng 1000))
  in
  List.map
    (fun (_, e) ->
      Array.fold_left
        (fun acc values -> (acc * 1000003) + eval_expr values e)
        0 valuations
      land 0x3FFFFFFF)
    s.outputs
