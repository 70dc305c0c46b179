(* Tests for the diffing stack: block semantics, Hungarian assignment,
   BinHunt, the comparison tools, Precision@1, and the matched-ratio
   metrics. *)

let compile ?(profile = Toolchain.Flags.gcc) ?(preset = "O2") name =
  Toolchain.Pipeline.compile_preset profile preset
    (Corpus.program (Corpus.find name))

(* --- Hungarian assignment --- *)

let test_assignment_simple () =
  let w = [| [| 1.0; 5.0 |]; [| 5.0; 1.0 |] |] in
  Alcotest.(check (list (pair int int))) "anti-diagonal" [ (0, 1); (1, 0) ]
    (Diffing.Assignment.solve w)

let test_assignment_rectangular () =
  let w = [| [| 0.1; 0.9; 0.2 |] |] in
  Alcotest.(check (list (pair int int))) "picks max column" [ (0, 1) ]
    (Diffing.Assignment.solve w)

let test_assignment_optimal_vs_greedy () =
  (* greedy would pick (0,0)=10 then (1,1)=1 → 11; optimal is 9+9=18 *)
  let w = [| [| 10.0; 9.0 |]; [| 9.0; 1.0 |] |] in
  let pairs = Diffing.Assignment.solve w in
  let total = List.fold_left (fun acc (i, j) -> acc +. w.(i).(j)) 0.0 pairs in
  Alcotest.(check (float 1e-9)) "optimal total" 18.0 total

let test_assignment_empty () =
  Alcotest.(check (list (pair int int))) "empty" [] (Diffing.Assignment.solve [||])

let prop_assignment_beats_greedy =
  QCheck.Test.make ~name:"hungarian >= greedy" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 16) (float_bound_exclusive 10.0))
    (fun flat ->
      let w = Array.init 4 (fun i -> Array.init 4 (fun j -> List.nth flat ((4 * i) + j))) in
      let pairs = Diffing.Assignment.solve w in
      let total = List.fold_left (fun acc (i, j) -> acc +. w.(i).(j)) 0.0 pairs in
      (* greedy row-by-row matching *)
      let used = Array.make 4 false in
      let greedy = ref 0.0 in
      for i = 0 to 3 do
        let best = ref (-1) and bv = ref 0.0 in
        for j = 0 to 3 do
          if (not used.(j)) && w.(i).(j) > !bv then begin
            bv := w.(i).(j);
            best := j
          end
        done;
        if !best >= 0 then begin
          used.(!best) <- true;
          greedy := !greedy +. !bv
        end
      done;
      total >= !greedy -. 1e-9)

(* --- block semantics --- *)

let summaries_of bin =
  let c = Diffing.Bcode.analyze bin in
  let ret_reg = bin.Isa.Binary.ret_reg in
  Array.to_list c.funcs
  |> List.concat_map (fun (f : Diffing.Bcode.func) ->
         Array.to_list (Array.map (Diffing.Semantics.summarize ~ret_reg) f.blocks))

let test_semantics_self_equivalent () =
  let bin = compile "429.mcf" in
  List.iter
    (fun s ->
      Alcotest.(check bool) "reflexive" true (Diffing.Semantics.equivalent s s))
    (summaries_of bin)

let test_semantics_register_renaming () =
  (* same computation in different registers: equivalent, not same-regs *)
  let open Isa.Insn in
  let blk insns = { Diffing.Bcode.id = 0; insns; succs = [] } in
  let a =
    Diffing.Semantics.summarize ~ret_reg:0
      (blk [ Ialu (Aadd, 5, 1, Oreg 2); Ist (3, Oimm 0, Oreg 5) ])
  in
  let b =
    Diffing.Semantics.summarize ~ret_reg:0
      (blk [ Ialu (Aadd, 9, 4, Oreg 7); Ist (3, Oimm 0, Oreg 9) ])
  in
  Alcotest.(check bool) "equivalent" true (Diffing.Semantics.equivalent a b);
  Alcotest.(check bool) "different registers" false
    (Diffing.Semantics.same_registers a b)

let test_semantics_reordering () =
  let open Isa.Insn in
  let blk insns = { Diffing.Bcode.id = 0; insns; succs = [] } in
  let a =
    Diffing.Semantics.summarize ~ret_reg:0
      (blk [ Ialu (Aadd, 5, 1, Oimm 3); Ialu (Amul, 6, 2, Oimm 7) ])
  in
  let b =
    Diffing.Semantics.summarize ~ret_reg:0
      (blk [ Ialu (Amul, 6, 2, Oimm 7); Ialu (Aadd, 5, 1, Oimm 3) ])
  in
  Alcotest.(check bool) "instruction reordering invisible" true
    (Diffing.Semantics.equivalent a b);
  Alcotest.(check bool) "same registers" true
    (Diffing.Semantics.same_registers a b)

let test_semantics_fused_compare () =
  (* cmp+setcc+test+jcc vs fused cmp+jcc: same branch condition *)
  let open Isa.Insn in
  let blk insns = { Diffing.Bcode.id = 0; insns; succs = [ 1; 2 ] } in
  let unfused =
    Diffing.Semantics.summarize ~ret_reg:0
      (blk
         [ Icmp (1, Oimm 5); Isetcc (Clt, 3); Itest (3, 3); Ijcc (Cne, 64) ])
  in
  let fused =
    Diffing.Semantics.summarize ~ret_reg:0 (blk [ Icmp (1, Oimm 5); Ijcc (Clt, 32) ])
  in
  (* branch conditions coincide; outputs differ by the setcc register, so
     check fingerprint of branches via output_prints overlap *)
  let br s =
    List.filter (fun _ -> true) (Diffing.Semantics.output_prints s)
  in
  let inter =
    List.filter (fun h -> List.mem h (br fused)) (br unfused)
  in
  Alcotest.(check bool) "shared branch condition" true (inter <> [])

let test_semantics_distinguishes () =
  let open Isa.Insn in
  let blk insns = { Diffing.Bcode.id = 0; insns; succs = [] } in
  let a =
    Diffing.Semantics.summarize ~ret_reg:0 (blk [ Ist (3, Oimm 0, Oimm 1) ])
  in
  let b =
    Diffing.Semantics.summarize ~ret_reg:0 (blk [ Ist (3, Oimm 0, Oimm 2) ])
  in
  Alcotest.(check bool) "different stores differ" false
    (Diffing.Semantics.equivalent a b)

(* --- BinHunt --- *)

let test_binhunt_identity () =
  let bin = compile "429.mcf" in
  Alcotest.(check (float 1e-6)) "self distance zero" 0.0
    (Diffing.Binhunt.diff_score bin bin)

let test_binhunt_symmetryish () =
  let a = compile ~preset:"O1" "429.mcf" and b = compile ~preset:"O0" "429.mcf" in
  let d1 = Diffing.Binhunt.diff_score a b and d2 = Diffing.Binhunt.diff_score b a in
  Alcotest.(check bool) "roughly symmetric" true (abs_float (d1 -. d2) < 0.15)

let test_binhunt_monotone_ladder () =
  let o0 = compile ~preset:"O0" "coreutils" in
  let d p = Diffing.Binhunt.diff_score (compile ~preset:p "coreutils") o0 in
  let d1 = d "O1" and d3 = d "O3" in
  Alcotest.(check bool) "O3 more different than O1" true (d3 > d1);
  Alcotest.(check bool) "scores in range" true
    (d1 > 0.0 && d1 < 1.0 && d3 > 0.0 && d3 <= 1.0)

let test_binhunt_cross_program () =
  (* Different programs must look clearly different.  The absolute level
     is lower than the paper's 0.79 because MinC -O0 boilerplate is more
     uniform than real C (see DESIGN.md §5); what matters is that it sits
     well above same-program comparisons at O0/O1. *)
  let a = compile ~preset:"O0" "coreutils" and b = compile ~preset:"O0" "openssl" in
  Alcotest.(check bool) "wrong pair high" true
    (Diffing.Binhunt.diff_score a b > 0.35)

(* --- tools + precision --- *)

let test_tools_self_similarity () =
  let bin = compile "483.xalancbmk" in
  List.iter
    (fun tool ->
      let r = Diffing.Precision.evaluate tool bin bin in
      Alcotest.(check bool)
        (tool.Diffing.Tools.tool_name ^ " self precision high")
        true
        (r.Diffing.Precision.precision >= 0.6))
    Diffing.Tools.all

let test_precision_degrades_with_optimization () =
  let o0 = compile ~preset:"O0" "coreutils" in
  let o1 = compile ~preset:"O1" "coreutils" in
  let o3 = compile ~preset:"O3" "coreutils" in
  let avg bin =
    let rs = Diffing.Precision.evaluate_all bin o0 in
    Util.Stats.mean (List.map (fun r -> r.Diffing.Precision.precision) rs)
  in
  Alcotest.(check bool) "O3 harder than O1" true (avg o3 <= avg o1)

let test_metrics_ratios () =
  let o0 = compile ~preset:"O0" "429.mcf" in
  let o1 = compile ~preset:"O1" "429.mcf" in
  let m = Diffing.Metrics.compute o1 o0 in
  Alcotest.(check bool) "matched blocks bounded" true
    (m.matched_blocks <= min m.blocks_a m.blocks_b);
  Alcotest.(check bool) "matched edges bounded" true
    (m.matched_edges <= min m.edges_a m.edges_b);
  Alcotest.(check bool) "matched funcs bounded" true
    (m.matched_funcs <= min m.funcs_a m.funcs_b);
  let self = Diffing.Metrics.compute o0 o0 in
  Alcotest.(check int) "self matches all blocks" self.blocks_a
    self.matched_blocks

(* No diffing result depends on which binary value it is handed: two
   compiles of one preset are equal in content but distinct values, and
   every result for the pair equals the one for a single value passed
   twice. *)
let test_results_independent_of_binary_value () =
  let a = compile ~preset:"O2" "462.libquantum" in
  let a' = compile ~preset:"O2" "462.libquantum" in
  let o0 = compile ~preset:"O0" "462.libquantum" in
  Alcotest.(check bool) "equal content" true (a = a');
  Alcotest.(check bool) "distinct values" false (a == a');
  Alcotest.(check bool) "binhunt pair = same value" true
    (Diffing.Binhunt.compare_binaries a a'
    = Diffing.Binhunt.compare_binaries a a);
  Alcotest.(check (float 0.0)) "binhunt against O0"
    (Diffing.Binhunt.diff_score a o0) (Diffing.Binhunt.diff_score a' o0);
  Alcotest.(check bool) "metrics pair = same value" true
    (Diffing.Metrics.compute a a' = Diffing.Metrics.compute a a);
  Alcotest.(check bool) "precision pair = same value" true
    (Diffing.Precision.evaluate_all a a' = Diffing.Precision.evaluate_all a a)

let tests =
  [
    Alcotest.test_case "assignment simple" `Quick test_assignment_simple;
    Alcotest.test_case "assignment rectangular" `Quick test_assignment_rectangular;
    Alcotest.test_case "assignment optimal" `Quick test_assignment_optimal_vs_greedy;
    Alcotest.test_case "assignment empty" `Quick test_assignment_empty;
    QCheck_alcotest.to_alcotest prop_assignment_beats_greedy;
    Alcotest.test_case "semantics reflexive" `Quick test_semantics_self_equivalent;
    Alcotest.test_case "semantics renaming" `Quick test_semantics_register_renaming;
    Alcotest.test_case "semantics reordering" `Quick test_semantics_reordering;
    Alcotest.test_case "semantics fused cmp" `Quick test_semantics_fused_compare;
    Alcotest.test_case "semantics distinguishes" `Quick test_semantics_distinguishes;
    Alcotest.test_case "binhunt identity" `Quick test_binhunt_identity;
    Alcotest.test_case "binhunt symmetry" `Quick test_binhunt_symmetryish;
    Alcotest.test_case "binhunt ladder" `Quick test_binhunt_monotone_ladder;
    Alcotest.test_case "binhunt cross program" `Quick test_binhunt_cross_program;
    Alcotest.test_case "tools self similarity" `Quick test_tools_self_similarity;
    Alcotest.test_case "precision degrades" `Quick test_precision_degrades_with_optimization;
    Alcotest.test_case "metrics ratios" `Quick test_metrics_ratios;
    Alcotest.test_case "results independent of binary value" `Quick
      test_results_independent_of_binary_value;
  ]
