(* The flag-gated analysis-driven optimizer passes (SCCP, GVN, dominator
   LICM), locked down by property tests before they are allowed into the
   search universe:

   - semantics preservation on *arbitrary* random CFGs (irreducible,
     unreachable, undefined-register shapes the frontend never emits),
     differentially against the reference interpreter;
   - idempotence: a second application is the identity;
   - SCCP never prunes an edge the analyses consider takeable
     (cross-checked against fresh constprop/interval solves of the
     pristine function);
   - GVN never increases the instruction count;
   - LICM only creates preheaders that dominate their loop header;

   plus structural unit tests proving each pass fires on code built to
   trigger it, and regressions for the [Loop_branch] counter-mutation
   soundness holes the new passes exposed. *)

open Vir.Ir
module CP = Analysis.Dataflow.Constprop
module IV = Analysis.Dataflow.Interval
module Iset = Analysis.Dataflow.Iset

let copy_func (f : func) : func =
  Marshal.from_string (Marshal.to_string f []) 0

(* Wrap a bare function for the interpreter: entry point, no parameters
   (reads of the former parameter register see the machine's zero-init,
   which is exactly what the analyses assume for undefined registers). *)
let mainify (f : func) : func = { (copy_func f) with fname = "main"; params = [] }

let interp ?(fuel = 200_000) (f : func) =
  try
    let r =
      Vir.Interp.run ~fuel (Test_analysis.prog_of_func f) ~input:[| 0 |]
    in
    Some (Vir.Interp.output_to_string r.output, r.return_value)
  with Vir.Interp.Out_of_fuel -> None

let passes =
  [
    ("sccp", Passes.Sccp.run);
    ("gvn", Passes.Gvn.run);
    ("licm_dom", Passes.Licm_dom.run);
  ]

(* ------------------------------------------------------------------ *)
(* Semantics preservation on random CFGs                               *)
(* ------------------------------------------------------------------ *)

let prop_semantics name pass =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: semantics preserved on random CFGs" name)
    ~count:500 QCheck.small_nat (fun seed ->
      let f = mainify (Test_analysis.random_func (seed * 13 + 5)) in
      match interp f with
      | None -> true (* original diverges: nothing to compare *)
      | Some before ->
        let g = copy_func f in
        pass g;
        (* hoisting may execute a formerly conditional instruction, so the
           bound is generous — but the transformed program must terminate
           if the original did *)
        interp ~fuel:2_000_000 g = Some before)

let prop_semantics_composed =
  QCheck.Test.make ~name:"sccp+gvn+licm_dom composed preserve semantics"
    ~count:300 QCheck.small_nat (fun seed ->
      let f = mainify (Test_analysis.random_func (seed * 29 + 3)) in
      match interp f with
      | None -> true
      | Some before ->
        let g = copy_func f in
        List.iter (fun (_, p) -> p g) passes;
        interp ~fuel:2_000_000 g = Some before)

(* ------------------------------------------------------------------ *)
(* Idempotence                                                         *)
(* ------------------------------------------------------------------ *)

let prop_idempotent name pass =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: second application is the identity" name)
    ~count:300 QCheck.small_nat (fun seed ->
      let f = Test_analysis.random_func (seed * 17 + 1) in
      pass f;
      let once = func_to_string f in
      pass f;
      func_to_string f = once)

let test_idempotent_on_fuzz () =
  (* realistic frontend IR, including calls, memory and vector code *)
  List.iter
    (fun seed ->
      List.iter
        (fun f ->
          List.iter
            (fun (name, pass) ->
              let g = copy_func f in
              pass g;
              let once = func_to_string g in
              pass g;
              Alcotest.(check string)
                (Printf.sprintf "%s idempotent on fuzz seed %d/%s" name seed
                   f.fname)
                once (func_to_string g))
            passes)
        (Test_analysis.funcs_of_fuzz seed))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* SCCP: pruned edges are statically dead                              *)
(* ------------------------------------------------------------------ *)

(* An independent re-derivation of "which successors can this block's
   terminator still take", from fresh solves of the pristine function.
   Every edge [transform] reports pruned must be absent from this set. *)
let possible_successors pristine =
  let cp_in, _ = CP.solve pristine in
  let _, iv_out = IV.solve pristine in
  fun (b : block) ->
    match Hashtbl.find_opt cp_in b.label with
    | None | Some CP.Unreached -> []
    | Some (CP.Env env0) ->
      let env = List.fold_left CP.eval_instr env0 b.instrs in
      let ienv =
        match Hashtbl.find_opt iv_out b.label with
        | Some (IV.Env e) -> Some e
        | _ -> None
      in
      let itv_of r =
        match ienv with Some e -> IV.lookup e r | None -> IV.top
      in
      (match b.term with
      | Br (c, t, e) -> (
        match CP.operand env c with
        | CP.Const v -> [ (if v <> 0 then t else e) ]
        | CP.Top -> (
          match c with
          | Reg r ->
            let itv = itv_of r in
            if itv.IV.lo > 0 || itv.IV.hi < 0 then [ t ] else [ t; e ]
          | Imm _ -> [ t; e ]))
      | Switch (v, cases, d) -> (
        match CP.operand env v with
        | CP.Const n -> [ (try List.assoc n cases with Not_found -> d) ]
        | CP.Top ->
          let itv =
            match v with Reg r -> itv_of r | Imm _ -> IV.top
          in
          d
          :: List.filter_map
               (fun (k, l) ->
                 if k >= itv.IV.lo && k <= itv.IV.hi then Some l else None)
               cases)
      | t -> successors t)

let prop_sccp_prunes_only_dead_edges =
  QCheck.Test.make ~name:"sccp: every pruned edge is statically dead"
    ~count:500 QCheck.small_nat (fun seed ->
      let f = Test_analysis.random_func (seed * 11 + 7) in
      let pristine = copy_func f in
      let stats = Passes.Sccp.transform f in
      let possible = possible_successors pristine in
      List.for_all
        (fun (src, dst) ->
          match List.find_opt (fun b -> b.label = src) pristine.blocks with
          | None -> false
          | Some b -> not (List.mem dst (possible b)))
        stats.Passes.Sccp.pruned_edges)

(* ------------------------------------------------------------------ *)
(* GVN: instruction count never increases                              *)
(* ------------------------------------------------------------------ *)

let prop_gvn_count =
  QCheck.Test.make ~name:"gvn: instruction count never increases" ~count:500
    QCheck.small_nat (fun seed ->
      let f = Test_analysis.random_func (seed * 23 + 9) in
      let before = func_instr_count f in
      Passes.Gvn.run f;
      func_instr_count f <= before)

let test_gvn_count_on_fuzz () =
  List.iter
    (fun seed ->
      List.iter
        (fun f ->
          let g = copy_func f in
          let before = func_instr_count g in
          Passes.Gvn.run g;
          Alcotest.(check bool)
            (Printf.sprintf "no growth on fuzz seed %d/%s" seed f.fname)
            true
            (func_instr_count g <= before))
        (Test_analysis.funcs_of_fuzz seed))
    [ 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* LICM: preheaders dominate their headers                             *)
(* ------------------------------------------------------------------ *)

let check_preheaders_dominate name (f : func) =
  let before_label = f.next_label in
  Passes.Licm_dom.run f;
  let dom = Passes.Cfg_utils.dominators f in
  List.for_all
    (fun b ->
      b.label < before_label
      ||
      (* every block the pass created is a preheader: a single [Jmp] to
         its header, and it must dominate that header *)
      match b.term with
      | Jmp h -> (
        b.instrs <> []
        &&
        match Hashtbl.find_opt dom h with
        | Some doms -> Iset.mem b.label doms
        | None -> false)
      | _ ->
        Alcotest.failf "%s: new block %d is not a preheader" name b.label)
    f.blocks

let prop_licm_preheaders_dominate =
  QCheck.Test.make ~name:"licm_dom: preheaders dominate their loops"
    ~count:500 QCheck.small_nat (fun seed ->
      check_preheaders_dominate "random"
        (Test_analysis.random_func (seed * 19 + 11)))

let test_licm_preheaders_on_fuzz () =
  List.iter
    (fun seed ->
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "preheaders dominate, fuzz seed %d/%s" seed
               f.fname)
            true
            (check_preheaders_dominate "fuzz" (copy_func f)))
        (Test_analysis.funcs_of_fuzz seed))
    [ 8; 9; 10 ]

(* ------------------------------------------------------------------ *)
(* Structural unit tests: each pass fires on its trigger pattern       *)
(* ------------------------------------------------------------------ *)

let mkblock = Test_analysis.mkblock

let test_sccp_folds_constant_branch () =
  let f =
    Test_analysis.mkfunc ~nregs:4
      [
        mkblock 0 [ Mov (1, Imm 5) ] (Br (Reg 1, 1, 2));
        mkblock 1 [ Print_int (Imm 1) ] (Ret (Some (Imm 0)));
        mkblock 2 [ Print_int (Imm 99) ] (Ret (Some (Imm 1)));
      ]
  in
  Passes.Sccp.run f;
  Alcotest.(check bool) "dead arm removed" false
    (List.exists
       (fun b -> List.mem (Print_int (Imm 99)) b.instrs)
       f.blocks);
  Alcotest.(check bool) "live arm kept" true
    (List.exists (fun b -> List.mem (Print_int (Imm 1)) b.instrs) f.blocks)

let test_sccp_prunes_switch_arm_by_interval () =
  (* r1 = r0 land 3 ∈ [0,3]: the arm at 5 is provably dead, the arm at 2
     is not *)
  let f =
    Test_analysis.mkfunc ~params:[ 0 ] ~nregs:4
      [
        mkblock 0
          [ Bin (And, 1, Reg 0, Imm 3) ]
          (Switch (Reg 1, [ (2, 1); (5, 2) ], 3));
        mkblock 1 [ Print_int (Imm 2) ] (Ret (Some (Imm 0)));
        mkblock 2 [ Print_int (Imm 99) ] (Ret (Some (Imm 0)));
        mkblock 3 [ Print_int (Imm 3) ] (Ret (Some (Imm 0)));
      ]
  in
  let stats = Passes.Sccp.transform f in
  Alcotest.(check (list (pair int int)))
    "exactly the out-of-range arm pruned"
    [ (0, 2) ]
    stats.Passes.Sccp.pruned_edges;
  Alcotest.(check bool) "in-range arm kept" true
    (match (List.hd f.blocks).term with
    | Switch (Reg 1, [ (2, 1) ], 3) -> true
    | _ -> false)

let test_sccp_loop_branch_counter_not_folded () =
  (* The counter of a [Loop_branch] is decremented by the terminator; the
     constprop instance must not let its initial constant survive the
     back edge (regression for the transfer-function fix). *)
  let f =
    Test_analysis.mkfunc ~nregs:3
      [
        mkblock 0 [ Mov (1, Imm 3) ] (Jmp 1);
        mkblock 1 [ Print_int (Reg 1) ] (Loop_branch (1, 1, 2));
        mkblock 2 [] (Ret (Some (Imm 0)));
      ]
  in
  let before = interp (mainify f) in
  let g = copy_func f in
  Passes.Sccp.run g;
  Alcotest.(check bool) "counter print not constant-folded" true
    (List.exists
       (fun b -> List.mem (Print_int (Reg 1)) b.instrs)
       g.blocks);
  Alcotest.(check bool) "behaviour unchanged" true
    (interp (mainify g) = before && before <> None)

let test_gvn_eliminates_dominated_redundancy () =
  let f =
    Test_analysis.mkfunc ~params:[ 0 ] ~nregs:4
      [
        mkblock 0 [ Bin (Mul, 1, Reg 0, Reg 0) ] (Br (Reg 0, 1, 2));
        mkblock 1
          [ Bin (Mul, 2, Reg 0, Reg 0); Print_int (Reg 2) ]
          (Jmp 2);
        mkblock 2 [] (Ret (Some (Reg 1)));
      ]
  in
  Passes.Gvn.run f;
  let b1 = List.find (fun b -> b.label = 1) f.blocks in
  Alcotest.(check bool) "recomputation replaced by copy" true
    (List.mem (Mov (2, Reg 1)) b1.instrs)

let test_gvn_canonicalizes_commutative_operands () =
  let f =
    Test_analysis.mkfunc ~params:[ 0 ] ~nregs:5
      [
        mkblock 0
          [ Mov (1, Imm 7); Bin (Add, 2, Reg 0, Reg 1) ]
          (Br (Reg 0, 1, 2));
        mkblock 1
          [ Bin (Add, 3, Reg 1, Reg 0); Print_int (Reg 3) ]
          (Jmp 2);
        mkblock 2 [] (Ret (Some (Reg 2)));
      ]
  in
  Passes.Gvn.run f;
  let b1 = List.find (fun b -> b.label = 1) f.blocks in
  Alcotest.(check bool) "swapped operands still match" true
    (List.mem (Mov (3, Reg 2)) b1.instrs)

let test_gvn_respects_definition_order () =
  (* r5 reads r1 *before* its definition (value 0); r6 reads it after.
     The two Adds have equal keys but different values — GVN must not
     merge them, because r1's definition does not dominate r5's site. *)
  let f =
    Test_analysis.mkfunc ~nregs:8
      [
        mkblock 0
          [
            Bin (Add, 5, Reg 1, Imm 1);
            Read_input (1, Imm 0);
            Bin (Add, 6, Reg 1, Imm 1);
            Print_int (Reg 5);
            Print_int (Reg 6);
          ]
          (Ret (Some (Imm 0)));
      ]
  in
  let g = copy_func f in
  Passes.Gvn.run g;
  Alcotest.(check string) "no unsound merge" (func_to_string f)
    (func_to_string g)

let test_licm_hoists_invariant_chain () =
  (* r2 and r3 form an invariant chain: both must leave the loop in ONE
     application (the single-round [Ir_opt.licm] needs two) *)
  let f =
    Test_analysis.mkfunc ~params:[ 0 ] ~nregs:8
      [
        mkblock 0 [ Mov (1, Imm 10) ] (Jmp 1);
        mkblock 1
          [
            Bin (Mul, 2, Reg 0, Reg 0);
            Bin (Add, 3, Reg 2, Imm 1);
            Bin (Add, 4, Reg 4, Imm 1);
            Bin (Slt, 5, Reg 4, Reg 1);
          ]
          (Br (Reg 5, 1, 2));
        mkblock 2 [] (Ret (Some (Reg 3)));
      ]
  in
  let before = interp (mainify f) in
  Passes.Licm_dom.run f;
  let b1 = List.find (fun b -> b.label = 1) f.blocks in
  let defs b = List.filter_map instr_def b.instrs in
  Alcotest.(check bool) "chain left the loop" true
    ((not (List.mem 2 (defs b1))) && not (List.mem 3 (defs b1)));
  let pre = List.find (fun b -> b.label >= 3) f.blocks in
  Alcotest.(check bool) "chain sits in the preheader, in dependency order"
    true
    (match defs pre with [ 2; 3 ] -> true | _ -> false);
  Alcotest.(check bool) "behaviour unchanged" true
    (interp (mainify f) = before && before <> None)

let test_licm_leaves_conditional_def () =
  (* r2's definition is guarded: iterations where r0 is 0 read r2 = 0 at
     the print.  Hoisting would speculate the multiply — the dominance
     check must refuse. *)
  let f =
    Test_analysis.mkfunc ~params:[ 0 ] ~nregs:8
      [
        mkblock 0 [ Mov (1, Imm 3) ] (Jmp 1);
        mkblock 1 [] (Br (Reg 0, 2, 3));
        mkblock 2 [ Bin (Mul, 2, Reg 0, Imm 5) ] (Jmp 3);
        mkblock 3 [ Print_int (Reg 2) ] (Loop_branch (1, 1, 4));
        mkblock 4 [] (Ret (Some (Imm 0)));
      ]
  in
  let g = copy_func f in
  Passes.Licm_dom.run g;
  let b2 = List.find (fun b -> b.label = 2) g.blocks in
  Alcotest.(check bool) "guarded def not hoisted" true
    (List.mem (Bin (Mul, 2, Reg 0, Imm 5)) b2.instrs)

let test_licm_loop_branch_counter_is_variant () =
  (* regression for both LICM implementations: a [Loop_branch] counter is
     loop-varying even though no in-loop *instruction* defines it *)
  let mk () =
    Test_analysis.mkfunc ~nregs:4
      [
        mkblock 0 [ Mov (1, Imm 3) ] (Jmp 1);
        mkblock 1
          [ Bin (Add, 2, Reg 1, Imm 0); Print_int (Reg 2) ]
          (Loop_branch (1, 1, 2));
        mkblock 2 [] (Ret (Some (Imm 0)));
      ]
  in
  let reference = interp (mainify (mk ())) in
  Alcotest.(check bool) "reference terminates" true (reference <> None);
  List.iter
    (fun (name, pass) ->
      let f = mk () in
      pass f;
      let b1 = List.find (fun b -> b.label = 1) f.blocks in
      Alcotest.(check bool)
        (name ^ ": counter-derived value stays in the loop")
        true
        (List.mem (Bin (Add, 2, Reg 1, Imm 0)) b1.instrs);
      Alcotest.(check bool)
        (name ^ ": behaviour unchanged")
        true
        (interp (mainify f) = reference))
    [ ("ir_opt.licm", Passes.Ir_opt.licm); ("licm_dom", Passes.Licm_dom.run) ]

(* ------------------------------------------------------------------ *)
(* Telemetry counters                                                  *)
(* ------------------------------------------------------------------ *)

let test_pass_counters_fire () =
  let t = Telemetry.create () in
  Telemetry.set_global t;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_global Telemetry.null)
    (fun () ->
      let f =
        Test_analysis.mkfunc ~params:[ 0 ] ~nregs:8
          [
            mkblock 0
              [ Mov (1, Imm 5); Bin (Mul, 2, Reg 0, Reg 0) ]
              (Br (Reg 1, 1, 3));
            mkblock 1
              [ Bin (Mul, 3, Reg 0, Reg 0); Bin (Add, 4, Reg 4, Imm 1) ]
              (Br (Reg 4, 1, 2));
            mkblock 2 [] (Ret (Some (Reg 3)));
            mkblock 3 [ Print_int (Imm 99) ] (Ret (Some (Imm 1)));
          ]
      in
      Passes.Sccp.run (copy_func f);
      Passes.Gvn.run (copy_func f);
      Passes.Licm_dom.run (copy_func f));
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " fired") true (Telemetry.counter_value t c > 0))
    [ "pass.sccp.folds"; "pass.sccp.pruned_edges"; "pass.gvn.replaced" ]

(* Concrete arithmetic wraps, so an [Interval] fact that excludes the
   wrapped value lets SCCP turn a live branch into a jump.  Each program
   below once did: bounds past 2^30 saturated to ±∞ by sign ([x * x]
   with x in [2^32, 2^33] read as [max_int, max_int] although every
   product wraps to 0); a product by [0, 0] of an infinite bound gave
   [min_int]; and a constant equal to [max_int] read as +∞.  O2 plus each
   profile's SCCP flag must print what O0 prints. *)
let test_sccp_interval_overflow () =
  let progs =
    [
      {|int main() {
          int x = 4294967296;
          if (input(0)) x = 8589934592;
          int y = x * x;
          if (y) print_int(1); else print_int(2);
          return 0;
        }|};
      {|int main() {
          int t = input(1) % 1;
          int y = input(0) * t;
          if (y) print_int(1); else print_int(2);
          return 0;
        }|};
      {|int main() {
          int m = 4611686018427387903;
          int t = input(1) % 1;
          int y = m * t;
          if (y) print_int(1); else print_int(2);
          return 0;
        }|};
      {|int main() {
          int m = 4611686018427387903;
          int t = input(1) % 1;
          int z = m + t - m;
          if (z) print_int(1); else print_int(2);
          return 0;
        }|};
    ]
  in
  let run bin input =
    Vir.Interp.output_to_string (Vm.Machine.run bin ~input).Vm.Machine.output
  in
  List.iteri
    (fun i src ->
      let prog = Minic.Sema.analyze src in
      List.iter
        (fun (profile, flag) ->
          let o0 = Toolchain.Pipeline.compile_preset profile "O0" prog in
          let v =
            Array.copy (Option.get (Toolchain.Flags.preset profile "O2"))
          in
          v.(Toolchain.Flags.flag_index profile flag) <- true;
          let opt = Toolchain.Pipeline.compile_flags profile v prog in
          List.iter
            (fun input ->
              Alcotest.(check string)
                (Printf.sprintf "program %d O2+%s input %d" i flag input.(0))
                (run o0 input) (run opt input))
            [ [| 0; 0 |]; [| 1; 5 |] ])
        [ (Toolchain.Flags.gcc, "-ftree-ccp"); (Toolchain.Flags.llvm, "-fsccp") ])
    progs

let tests =
  List.concat
    [
      List.map
        (fun (name, pass) ->
          QCheck_alcotest.to_alcotest (prop_semantics name pass))
        passes;
      List.map
        (fun (name, pass) ->
          QCheck_alcotest.to_alcotest (prop_idempotent name pass))
        passes;
      [
        QCheck_alcotest.to_alcotest prop_semantics_composed;
        QCheck_alcotest.to_alcotest prop_sccp_prunes_only_dead_edges;
        QCheck_alcotest.to_alcotest prop_gvn_count;
        QCheck_alcotest.to_alcotest prop_licm_preheaders_dominate;
        Alcotest.test_case "idempotent on fuzzed IR" `Slow
          test_idempotent_on_fuzz;
        Alcotest.test_case "gvn no growth on fuzzed IR" `Slow
          test_gvn_count_on_fuzz;
        Alcotest.test_case "licm preheaders on fuzzed IR" `Slow
          test_licm_preheaders_on_fuzz;
        Alcotest.test_case "sccp folds constant branch" `Quick
          test_sccp_folds_constant_branch;
        Alcotest.test_case "sccp prunes switch arm by interval" `Quick
          test_sccp_prunes_switch_arm_by_interval;
        Alcotest.test_case "sccp loop_branch counter" `Quick
          test_sccp_loop_branch_counter_not_folded;
        Alcotest.test_case "gvn eliminates dominated redundancy" `Quick
          test_gvn_eliminates_dominated_redundancy;
        Alcotest.test_case "gvn commutative canonicalization" `Quick
          test_gvn_canonicalizes_commutative_operands;
        Alcotest.test_case "gvn respects definition order" `Quick
          test_gvn_respects_definition_order;
        Alcotest.test_case "licm hoists invariant chain" `Quick
          test_licm_hoists_invariant_chain;
        Alcotest.test_case "licm leaves conditional def" `Quick
          test_licm_leaves_conditional_def;
        Alcotest.test_case "licm loop_branch counter" `Quick
          test_licm_loop_branch_counter_is_variant;
        Alcotest.test_case "pass telemetry counters fire" `Quick
          test_pass_counters_fire;
        Alcotest.test_case "sccp interval overflow wraps" `Quick
          test_sccp_interval_overflow;
      ];
    ]
