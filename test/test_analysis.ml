(* The static-analysis subsystem: the generic worklist solver and its
   instances (liveness, dominators, reaching definitions, constant
   propagation, intervals), the IR verifier with its pipeline gate, and
   the MinC lint.

   The solver instances that replaced in-pass fixpoint loops are locked
   differentially against the frozen pre-framework implementations in
   [Frozen_liveness]: liveness and dominator fixpoints are unique, so
   the tables must be identical on every function. *)

open Vir.Ir
module Iset = Analysis.Dataflow.Iset
module DF = Analysis.Dataflow

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let mkfunc ?(params = []) ~nregs blocks =
  {
    fname = "t";
    params;
    blocks;
    next_reg = nregs;
    next_vreg = 0;
    next_label = List.length blocks;
    nslots = 0;
    local_arrays = [];
  }

let mkblock label instrs term = { label; instrs; term }

(* A random but structurally valid CFG: labels 0..n-1, pure instructions
   over a small register pool, terminators targeting existing labels.
   Exercises unreachable blocks, self-loops and irreducible shapes the
   fuzzer's structured programs never produce. *)
let random_func seed =
  let rng = Util.Rng.create seed in
  let n = 1 + Util.Rng.int rng 8 in
  let nregs = 2 + Util.Rng.int rng 6 in
  let reg () = Util.Rng.int rng nregs in
  let target () = Util.Rng.int rng n in
  let blocks =
    List.init n (fun l ->
        let instrs =
          List.init (Util.Rng.int rng 4) (fun _ ->
              match Util.Rng.int rng 3 with
              | 0 -> Mov (reg (), Reg (reg ()))
              | 1 -> Bin (Add, reg (), Reg (reg ()), Reg (reg ()))
              | _ -> Un (Neg, reg (), Reg (reg ())))
        in
        let term =
          match Util.Rng.int rng 5 with
          | 0 -> Ret (Some (Reg (reg ())))
          | 1 | 2 -> Jmp (target ())
          | 3 -> Br (Reg (reg ()), target (), target ())
          | _ ->
            Switch (Reg (reg ()), [ (0, target ()); (7, target ()) ], target ())
        in
        mkblock l instrs term)
  in
  mkfunc ~params:[ 0 ] ~nregs blocks

(* A random CFG with the shapes a dense kernel can get wrong: labels
   spread out and not starting at 0 (sometimes far enough apart that
   block indexing cannot use a direct table), successor labels that name
   no block, scalar and vector registers numbered past 63 so a bitset
   needs several words, and a [Loop_branch] counter. *)
let random_wide_func seed =
  let rng = Util.Rng.create seed in
  let n = 1 + Util.Rng.int rng 10 in
  let gap = if Util.Rng.int rng 4 = 0 then 100_000 else 1 + Util.Rng.int rng 5 in
  let base = 1 + Util.Rng.int rng 50 in
  let labels = Array.make n 0 in
  let next = ref base in
  for k = 0 to n - 1 do
    labels.(k) <- !next;
    next := !next + 1 + Util.Rng.int rng gap
  done;
  (* one in six targets names no block: a label in a gap between blocks
     when there is one, else one past the last block *)
  let target () =
    if Util.Rng.int rng 6 = 0 then
      let l = labels.(Util.Rng.int rng n) + 1 in
      if Array.mem l labels then !next + Util.Rng.int rng 4 else l
    else labels.(Util.Rng.int rng n)
  in
  let spread = 1 + Util.Rng.int rng 200 in
  let pool = Array.init (2 + Util.Rng.int rng 8) (fun _ -> Util.Rng.int rng spread) in
  let reg () = pool.(Util.Rng.int rng (Array.length pool)) in
  let vreg () = Util.Rng.int rng 70 in
  let blocks =
    List.init n (fun k ->
        let instrs =
          List.init (Util.Rng.int rng 5) (fun _ ->
              match Util.Rng.int rng 6 with
              | 0 -> Mov (reg (), Reg (reg ()))
              | 1 -> Bin (Add, reg (), Reg (reg ()), Imm 1)
              | 2 -> Vsplat (vreg (), Reg (reg ()))
              | 3 -> Vbin (Add, vreg (), vreg (), vreg ())
              | 4 -> Vreduce (Add, reg (), vreg ())
              | _ -> Un (Neg, reg (), Reg (reg ())))
        in
        let term =
          match Util.Rng.int rng 6 with
          | 0 -> Ret (Some (Reg (reg ())))
          | 1 | 2 -> Jmp (target ())
          | 3 -> Br (Reg (reg ()), target (), target ())
          | 4 -> Loop_branch (reg (), target (), target ())
          | _ ->
            Switch (Reg (reg ()), [ (0, target ()); (7, target ()) ], target ())
        in
        mkblock labels.(k) instrs term)
  in
  {
    (mkfunc ~params:[ pool.(0) ] ~nregs:spread blocks) with
    next_vreg = 70;
    next_label = !next;
  }

let table_equal t1 t2 =
  Hashtbl.length t1 = Hashtbl.length t2
  && Hashtbl.fold
       (fun k v acc ->
         acc
         && match Hashtbl.find_opt t2 k with
            | Some v' -> Iset.equal v v'
            | None -> false)
       t1 true

(* The dense liveness result as per-label tables, the frozen oracle's
   shape. *)
let tables (lv : DF.liveness) f =
  let table facts =
    let t = Hashtbl.create 16 in
    List.iteri
      (fun p b ->
        let s = ref Iset.empty in
        DF.Bits.iter (fun r -> s := Iset.add r !s) facts.(p);
        Hashtbl.replace t b.label !s)
      f.blocks;
    t
  in
  (table lv.live_in, table lv.live_out)

let liveness_matches solve frozen f =
  let in1, out1 = tables (solve f) f in
  let in2, out2 = frozen f in
  table_equal in1 in2 && table_equal out1 out2

let funcs_of_fuzz seed =
  let prog = Fuzzgen.generate seed in
  let ir = Vir.Lower.lower_program prog in
  let p = Toolchain.Flags.gcc in
  let cfg =
    Toolchain.Flags.resolve p (Option.get (Toolchain.Flags.preset p "O3"))
  in
  let opt = Toolchain.Pipeline.apply_passes cfg prog in
  ir.funcs @ opt.funcs

(* ------------------------------------------------------------------ *)
(* Solver properties                                                   *)
(* ------------------------------------------------------------------ *)

(* The solver terminates on arbitrary CFGs and its solution satisfies
   the liveness dataflow equations:
     out(b) = ∪ succ in(s)      in(b) = use(b) ∪ (out(b) \ def(b)) *)
let prop_liveness_fixpoint =
  QCheck.Test.make ~name:"solver: liveness solution is a fixpoint" ~count:200
    QCheck.small_nat (fun seed ->
      let f = random_func (seed * 7 + 1) in
      let live_in, live_out = tables (DF.Liveness.solve f) f in
      List.for_all
        (fun b ->
          let out =
            List.fold_left
              (fun acc s -> Iset.union acc (Hashtbl.find live_in s))
              Iset.empty (successors b.term)
          in
          let use, def = Frozen_liveness.block_use_def b in
          Iset.equal out (Hashtbl.find live_out b.label)
          && Iset.equal
               (Iset.union use (Iset.diff out def))
               (Hashtbl.find live_in b.label))
        f.blocks)

let prop_liveness_frozen_random =
  QCheck.Test.make
    ~name:"solver: liveness = frozen in-pass iteration (random CFGs)"
    ~count:200 QCheck.small_nat (fun seed ->
      let f = random_func (seed * 13 + 5) in
      liveness_matches DF.Liveness.solve Frozen_liveness.liveness f)

let prop_dominators_frozen_random =
  QCheck.Test.make
    ~name:"solver: dominators = frozen iteration (random CFGs)" ~count:200
    QCheck.small_nat (fun seed ->
      let f = random_func (seed * 29 + 3) in
      let d1 = Passes.Cfg_utils.dominators f in
      let d2 = Frozen_liveness.dominators f in
      table_equal d1 d2)

(* The same locks on CFGs with spread labels, dangling successors and
   registers past one bitset word. *)
let prop_wide_frozen =
  QCheck.Test.make
    ~name:"solver: liveness/vliveness/dominators = frozen (wide random CFGs)"
    ~count:300 QCheck.small_nat (fun seed ->
      let f = random_wide_func (seed * 31 + 11) in
      liveness_matches DF.Liveness.solve Frozen_liveness.liveness f
      && liveness_matches DF.Vliveness.solve Frozen_liveness.vliveness f
      && table_equal
           (Passes.Cfg_utils.dominators f)
           (Frozen_liveness.dominators f))

(* Differential lock on real compiler output: raw lowering and the full
   -O3 pipeline of fuzzer-generated programs. *)
let prop_liveness_frozen_fuzzed =
  QCheck.Test.make
    ~name:"solver: liveness/dominators = frozen on fuzzed programs" ~count:25
    QCheck.small_nat (fun seed ->
      List.for_all
        (fun f ->
          liveness_matches DF.Liveness.solve Frozen_liveness.liveness f
          && liveness_matches DF.Vliveness.solve Frozen_liveness.vliveness f
          && table_equal
               (Passes.Cfg_utils.dominators f)
               (Frozen_liveness.dominators f))
        (funcs_of_fuzz (seed + 500)))

(* Codegen solves scalar liveness once per function (the allocator and
   branch fusion share it) and vector liveness once; DCE and the lint
   add none.  The counts are deterministic work, not time. *)
let test_liveness_counters () =
  let p = Toolchain.Flags.gcc in
  let cfg =
    Toolchain.Flags.resolve p (Option.get (Toolchain.Flags.preset p "O2"))
  in
  let ir =
    Toolchain.Pipeline.apply_passes cfg
      (Corpus.program (Corpus.find "462.libquantum"))
  in
  let counts () =
    let t = Telemetry.create () in
    Telemetry.set_global t;
    Fun.protect
      ~finally:(fun () -> Telemetry.set_global Telemetry.null)
      (fun () ->
        ignore
          (Codegen.Emit.compile_program ~arch:Isa.Insn.X86_64 ~profile:"gcc"
             ~opt_label:"-O2" ir));
    ( Telemetry.counter_value t "dataflow.liveness.solves",
      Telemetry.counter_value t "dataflow.liveness.block_visits" )
  in
  let solves, visits = counts () in
  Alcotest.(check int)
    "one scalar and one vector solve per function"
    (2 * List.length ir.funcs)
    solves;
  Alcotest.(check bool) "blocks were visited" true (visits > 0);
  Alcotest.(check (pair int int)) "counts are deterministic" (solves, visits)
    (counts ())

(* ------------------------------------------------------------------ *)
(* Constant propagation and intervals                                  *)
(* ------------------------------------------------------------------ *)

let test_constprop_diamond () =
  (* r1 := 5; branch; both arms r2 := 3; join computes r3 := r1 + r2 *)
  let f =
    mkfunc ~params:[ 0 ] ~nregs:4
      [
        mkblock 0 [ Mov (1, Imm 5) ] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (2, Imm 3) ] (Jmp 3);
        mkblock 2 [ Mov (2, Imm 3) ] (Jmp 3);
        mkblock 3 [ Bin (Add, 3, Reg 1, Reg 2) ] (Ret (Some (Reg 3)));
      ]
  in
  let in_facts, out_facts = DF.Constprop.solve f in
  (match Hashtbl.find in_facts 3 with
  | DF.Constprop.Env env ->
    Alcotest.(check bool)
      "r1 = Const 5 at join" true
      (DF.Constprop.lookup env 1 = DF.Constprop.Const 5);
    Alcotest.(check bool)
      "r2 = Const 3 at join" true
      (DF.Constprop.lookup env 2 = DF.Constprop.Const 3)
  | DF.Constprop.Unreached -> Alcotest.fail "join unreached");
  match Hashtbl.find out_facts 3 with
  | DF.Constprop.Env env ->
    Alcotest.(check bool)
      "r3 = Const 8 at exit" true
      (DF.Constprop.lookup env 3 = DF.Constprop.Const 8)
  | DF.Constprop.Unreached -> Alcotest.fail "exit unreached"

let test_constprop_conflicting_join () =
  (* arms write different constants: the join must be Top *)
  let f =
    mkfunc ~params:[ 0 ] ~nregs:3
      [
        mkblock 0 [] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (1, Imm 4) ] (Jmp 3);
        mkblock 2 [ Mov (1, Imm 9) ] (Jmp 3);
        mkblock 3 [] (Ret (Some (Reg 1)));
      ]
  in
  let in_facts, _ = DF.Constprop.solve f in
  match Hashtbl.find in_facts 3 with
  | DF.Constprop.Env env ->
    Alcotest.(check bool)
      "conflicting constants join to Top" true
      (DF.Constprop.lookup env 1 = DF.Constprop.Top)
  | DF.Constprop.Unreached -> Alcotest.fail "join unreached"

let test_interval_loop_widening () =
  (* r1 counts 0,1,2,... round a loop; widening must terminate and keep
     the sound lower bound 0 while sending the unstable upper bound to
     +∞; the comparison result r2 stays within [0,1] *)
  let f =
    mkfunc ~params:[] ~nregs:3
      [
        mkblock 0 [ Mov (1, Imm 0) ] (Jmp 1);
        mkblock 1
          [ Bin (Add, 1, Reg 1, Imm 1); Bin (Slt, 2, Reg 1, Imm 10) ]
          (Br (Reg 2, 1, 2));
        mkblock 2 [] (Ret (Some (Reg 1)));
      ]
  in
  let in_facts, _ = DF.Interval.solve f in
  match Hashtbl.find in_facts 2 with
  | DF.Interval.Env env ->
    let v = DF.Interval.lookup env 1 in
    Alcotest.(check bool) "counter lower bound stays 0" true (v.DF.Interval.lo >= 0);
    let c = DF.Interval.lookup env 2 in
    Alcotest.(check bool)
      "comparison result within [0,1]" true
      (c.DF.Interval.lo >= 0 && c.DF.Interval.hi <= 1)
  | DF.Interval.Unreached -> Alcotest.fail "exit unreached"

(* Concrete arithmetic wraps, and [min_int]/[max_int] stand for -∞/+∞.
   A product by exactly 0 is 0 whatever the other factor, and a finite
   value that lands on a sentinel must not be read as infinite. *)
let test_interval_zero_and_sentinels () =
  let module IV = DF.Interval in
  (* r0 is unknown; r1 is absent from the environment, so it holds 0 *)
  let env =
    List.fold_left IV.eval_instr
      (DF.Imap.singleton 0 IV.top)
      [
        Bin (Mul, 2, Reg 0, Reg 1);
        Bin (Mul, 3, Imm max_int, Reg 1);
        Bin (Add, 4, Imm max_int, Reg 1);
        Bin (Sub, 5, Reg 4, Imm max_int);
        Un (Neg, 6, Imm (min_int + 1));
        Bin (Sub, 7, Reg 6, Imm max_int);
      ]
  in
  List.iter
    (fun (name, r) ->
      let v = IV.lookup env r in
      Alcotest.(check bool)
        (name ^ " contains 0") true
        (v.IV.lo <= 0 && 0 <= v.IV.hi))
    [
      ("top * 0", 2);
      ("max_int * 0", 3);
      ("max_int + 0 - max_int", 5);
      ("-(min_int + 1) - max_int", 7);
    ]

(* The two value domains cross-checked: wherever [Constprop] proves a
   register constant — at block entry, after each instruction and at
   block exit — the [Interval] fact at the same point contains that
   constant.  A register neither environment binds holds 0 in both. *)
let values_agree (f : func) =
  let module CP = DF.Constprop in
  let module IV = DF.Interval in
  let contains cenv ienv r =
    match CP.lookup cenv r with
    | CP.Const c ->
      let v = IV.lookup ienv r in
      v.IV.lo <= c && c <= v.IV.hi
    | CP.Top -> true
  in
  let agree cp iv =
    match (cp, iv) with
    | CP.Unreached, _ -> true
    | CP.Env _, IV.Unreached -> false
    | CP.Env cenv, IV.Env ienv ->
      DF.Imap.for_all (fun r _ -> contains cenv ienv r) cenv
      && DF.Imap.for_all (fun r _ -> contains cenv ienv r) ienv
  in
  let cp_in, cp_out = CP.solve f in
  let iv_in, iv_out = IV.solve f in
  List.for_all
    (fun b ->
      let fact tbl = Hashtbl.find tbl b.label in
      (* an instruction changes only the register it defines *)
      let rec walk cenv ienv = function
        | [] -> true
        | i :: rest ->
          let cenv = CP.eval_instr cenv i and ienv = IV.eval_instr ienv i in
          (match instr_def i with
          | Some d -> contains cenv ienv d
          | None -> true)
          && walk cenv ienv rest
      in
      agree (fact cp_in) (fact iv_in)
      && agree (fact cp_out) (fact iv_out)
      &&
      match (fact cp_in, fact iv_in) with
      | CP.Env cenv, IV.Env ienv -> walk cenv ienv b.instrs
      | _ -> true)
    f.blocks

let prop_values_agree_fuzzed =
  QCheck.Test.make
    ~name:"constprop constants lie in interval facts (fuzzed programs)"
    ~count:20 QCheck.small_nat (fun seed ->
      List.for_all values_agree (funcs_of_fuzz (seed + 900)))

let test_reaching_defs_diamond () =
  let f =
    mkfunc ~params:[ 0 ] ~nregs:2
      [
        mkblock 0 [] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (1, Imm 4) ] (Jmp 3);
        mkblock 2 [ Mov (1, Imm 9) ] (Jmp 3);
        mkblock 3 [] (Ret (Some (Reg 1)));
      ]
  in
  let in_facts, _ = DF.Reaching.solve f in
  let sites = Hashtbl.find in_facts 3 in
  let defs_of_r1 =
    DF.Reaching.Sset.filter (fun (_, _, r) -> r = 1) sites
  in
  Alcotest.(check int)
    "both arm definitions reach the join" 2
    (DF.Reaching.Sset.cardinal defs_of_r1);
  (* the parameter's boundary site reaches too *)
  Alcotest.(check bool)
    "parameter site reaches" true
    (DF.Reaching.Sset.exists (fun (b, _, r) -> b = -1 && r = 0) sites)

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let prog_of_func f = { globals = []; funcs = [ f ] }

let has_check errs c =
  List.exists (fun (e : Analysis.Verifier.error) -> e.check = c) errs

let test_verifier_clean () =
  let f =
    mkfunc ~params:[ 0 ] ~nregs:2
      [
        mkblock 0 [ Bin (Add, 1, Reg 0, Imm 1) ] (Ret (Some (Reg 1)));
      ]
  in
  Alcotest.(check int)
    "clean function verifies" 0
    (List.length (Analysis.Verifier.verify_func (prog_of_func f) f))

let test_verifier_structural () =
  (* a branch to a missing block *)
  let f =
    mkfunc ~params:[] ~nregs:1 [ mkblock 0 [] (Jmp 7) ]
  in
  Alcotest.(check bool)
    "missing branch target reported" true
    (has_check (Analysis.Verifier.verify_func (prog_of_func f) f) "target");
  (* call arity mismatch *)
  let callee =
    mkfunc ~params:[ 0; 1 ] ~nregs:2 [ mkblock 0 [] (Ret (Some (Imm 0))) ]
  in
  let callee = { callee with fname = "callee" } in
  let caller =
    mkfunc ~params:[] ~nregs:1
      [ mkblock 0 [ Call (Some 0, "callee", [ Imm 1 ]) ] (Ret None) ]
  in
  let p = { globals = []; funcs = [ callee; caller ] } in
  Alcotest.(check bool)
    "call arity mismatch reported" true
    (has_check (Analysis.Verifier.verify_func p caller) "call");
  (* slot out of bounds *)
  let f =
    mkfunc ~params:[] ~nregs:1
      [ mkblock 0 [ Slot_load (0, 3) ] (Ret None) ]
  in
  Alcotest.(check bool)
    "slot out of bounds reported" true
    (has_check (Analysis.Verifier.verify_func (prog_of_func f) f) "slot")

let test_verifier_undef_sink () =
  (* r1 assigned on one path only, then returned: the machine-dependent
     value escapes, which must be reported *)
  let f =
    mkfunc ~params:[ 0 ] ~nregs:2
      [
        mkblock 0 [] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (1, Imm 4) ] (Jmp 2);
        mkblock 2 [] (Ret (Some (Reg 1)));
      ]
  in
  Alcotest.(check bool)
    "partially-assigned return value reported" true
    (has_check (Analysis.Verifier.verify_func (prog_of_func f) f) "undef-use")

let test_verifier_speculation_shield () =
  (* the if-conversion shape: a speculated instruction reads a register
     assigned on only some paths, but the result flows only into a
     select data input — legal, the select picks the other arm exactly
     on the unassigned paths *)
  let f =
    mkfunc ~params:[ 0 ] ~nregs:4
      [
        mkblock 0 [ Mov (1, Imm 2) ] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (2, Imm 8) ] (Jmp 2);
        (* speculated: r3 := r2 + 1 where r2 is assigned only via L1 *)
        mkblock 2
          [
            Bin (Add, 3, Reg 2, Imm 1);
            Select (1, Reg 0, Reg 3, Reg 1);
          ]
          (Ret (Some (Reg 1)));
      ]
  in
  Alcotest.(check int)
    "select-shielded speculation verifies" 0
    (List.length (Analysis.Verifier.verify_func (prog_of_func f) f));
  (* ... but the same tainted value reaching a store is an error *)
  let g =
    mkfunc ~params:[ 0 ] ~nregs:4
      [
        mkblock 0 [ Mov (1, Imm 2) ] (Br (Reg 0, 1, 2));
        mkblock 1 [ Mov (2, Imm 8) ] (Jmp 2);
        mkblock 2
          [ Bin (Add, 3, Reg 2, Imm 1); Print_int (Reg 3) ]
          (Ret (Some (Reg 1)));
      ]
  in
  Alcotest.(check bool)
    "tainted value reaching output reported" true
    (has_check (Analysis.Verifier.verify_func (prog_of_func g) g) "undef-use")

(* Every pass prefix of every compile of fuzzer-generated programs must
   verify — the fuzz oracle extension, here on a small dedicated sweep
   (Test_fuzz runs the verifier inside its differential sweeps too). *)
let test_verifier_fuzz_prefixes () =
  List.iter
    (fun seed ->
      let prog = Fuzzgen.generate seed in
      List.iter
        (fun (p, preset) ->
          ignore
            (Toolchain.Pipeline.compile_preset p preset prog))
        [
          (Toolchain.Flags.gcc, "O2");
          (Toolchain.Flags.llvm, "O3");
        ])
    (List.init 6 (fun i -> (i * 59) + 11))

let test_verifier_fuzz_prefixes () =
  Toolchain.Pipeline.verify_default := true;
  Fun.protect
    ~finally:(fun () -> Toolchain.Pipeline.verify_default := false)
    test_verifier_fuzz_prefixes

(* ------------------------------------------------------------------ *)
(* Pipeline gate: a planted miscompile is caught and attributed        *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run [f] with the one verification switch on. *)
let with_verify f =
  Toolchain.Pipeline.verify_default := true;
  Fun.protect ~finally:(fun () -> Toolchain.Pipeline.verify_default := false) f

(* Plant a miscompile inside simplify_cfg (retarget each function's entry
   terminator at a block that does not exist) and check that [build],
   verified, fails naming the pass and the check. *)
let expect_planted_break_caught build =
  Toolchain.Pipeline.test_break :=
    Some
      ( "simplify_cfg",
        fun f -> (List.hd f.blocks).term <- Jmp (f.next_label + 17) );
  Fun.protect
    ~finally:(fun () -> Toolchain.Pipeline.test_break := None)
    (fun () ->
      match with_verify build with
      | exception Toolchain.Pipeline.Verification_failed msg ->
        Alcotest.(check bool)
          "failure names the broken pass" true
          (contains msg "after pass 'simplify_cfg'");
        Alcotest.(check bool)
          "failure names the check" true
          (contains msg "[target]")
      | _ -> Alcotest.fail "planted miscompile was not caught")

let broken_pass_src =
  "int main() { int x = 1; int y = x + 2; print_int(y); return y; }"

let test_broken_pass_attribution () =
  let prog = Minic.Sema.analyze broken_pass_src in
  let compile () =
    Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O0" prog
  in
  (* positive control: the gate passes on a healthy pipeline *)
  ignore (with_verify compile);
  expect_planted_break_caught compile

(* [apply_passes] reads the same switch as the compile entry points *)
let test_broken_pass_apply_passes () =
  let prog = Minic.Sema.analyze broken_pass_src in
  expect_planted_break_caught (fun () ->
      Toolchain.Pipeline.apply_passes Toolchain.Config.o0 prog)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_of_src src =
  let prog = Minic.Sema.analyze src in
  let ir =
    Vir.Lower.lower_program
      ~options:{ Vir.Lower.merge_conditionals = false; vectorize = false }
      prog
  in
  Analysis.Lint.lint_program ir

let has_category findings c =
  List.exists (fun (f : Analysis.Lint.finding) -> f.category = c) findings

let test_lint_findings () =
  Alcotest.(check bool)
    "unused local" true
    (has_category
       (lint_of_src "int main() { int unused = 5; return 0; }")
       "unused-local");
  Alcotest.(check bool)
    "unused param" true
    (has_category
       (lint_of_src
          "int g(int a, int b) { return a; }\n\
           int main() { return g(1, 2); }")
       "unused-param");
  Alcotest.(check bool)
    "dead store" true
    (has_category
       (lint_of_src "int main() { int x = 1; x = 2; return x; }")
       "dead-store");
  Alcotest.(check bool)
    "always-true condition" true
    (has_category
       (lint_of_src
          "int main() { int i = 0; while (1) { i = i + 1; if (i > 3) { \
           return i; } } return 0; }")
       "always-true");
  Alcotest.(check bool)
    "unreachable switch arm" true
    (has_category
       (lint_of_src
          "int f(int x) { switch (x & 3) { case 0: return 1; case 5: \
           return 2; } return 3; }\n\
           int main() { return f(7); }")
       "unreachable-switch-arm");
  (* a clean program stays clean *)
  Alcotest.(check int)
    "clean program has no findings" 0
    (List.length
       (lint_of_src "int main() { int x = 1; print_int(x); return x; }"))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_liveness_fixpoint;
    QCheck_alcotest.to_alcotest prop_liveness_frozen_random;
    QCheck_alcotest.to_alcotest prop_dominators_frozen_random;
    QCheck_alcotest.to_alcotest prop_liveness_frozen_fuzzed;
    QCheck_alcotest.to_alcotest prop_wide_frozen;
    QCheck_alcotest.to_alcotest prop_values_agree_fuzzed;
    Alcotest.test_case "liveness work counters" `Quick test_liveness_counters;
    Alcotest.test_case "constprop diamond" `Quick test_constprop_diamond;
    Alcotest.test_case "constprop conflicting join" `Quick
      test_constprop_conflicting_join;
    Alcotest.test_case "interval loop widening" `Quick
      test_interval_loop_widening;
    Alcotest.test_case "reaching defs diamond" `Quick
      test_reaching_defs_diamond;
    Alcotest.test_case "verifier clean" `Quick test_verifier_clean;
    Alcotest.test_case "verifier structural" `Quick test_verifier_structural;
    Alcotest.test_case "verifier undef sink" `Quick test_verifier_undef_sink;
    Alcotest.test_case "verifier speculation shield" `Quick
      test_verifier_speculation_shield;
    Alcotest.test_case "verifier fuzz pass prefixes" `Slow
      test_verifier_fuzz_prefixes;
    Alcotest.test_case "broken pass attribution" `Quick
      test_broken_pass_attribution;
    Alcotest.test_case "broken pass attribution in apply_passes" `Quick
      test_broken_pass_apply_passes;
    Alcotest.test_case "lint findings" `Quick test_lint_findings;
    Alcotest.test_case "interval zero product and sentinels" `Quick
      test_interval_zero_and_sentinels;
  ]
