(* Obfuscator-LLVM substitute: per-scheme semantic and structural tests
   (the whole-pipeline behaviour check lives in Test_compiler). *)

let prepared name =
  let cfg =
    Toolchain.Flags.resolve Toolchain.Flags.llvm Toolchain.Flags.llvm.preset_o1
  in
  Toolchain.Pipeline.apply_passes cfg (Corpus.program (Corpus.find name))

let behaviour ir input =
  let r = Vir.Interp.run ir ~input in
  (Vir.Interp.output_to_string r.output, r.return_value)

let counts (ir : Vir.Ir.program) =
  let blocks =
    List.fold_left (fun acc f -> acc + List.length f.Vir.Ir.blocks) 0 ir.funcs
  in
  (Vir.Ir.program_instr_count ir, blocks)

let scheme_test name apply structural_check () =
  let ir = prepared "429.mcf" in
  let want = behaviour ir [| 7 |] in
  let before = counts ir in
  apply ir;
  let got = behaviour ir [| 7 |] in
  Alcotest.(check string) (name ^ " output") (fst want) (fst got);
  Alcotest.(check int) (name ^ " exit") (snd want) (snd got);
  structural_check before (counts ir)

let test_substitution =
  scheme_test "substitution"
    (fun ir ->
      let rng = Util.Rng.create 3 in
      List.iter (Obf.Ollvm.substitute_instructions rng) ir.funcs)
    (fun (i0, _) (i1, _) ->
      Alcotest.(check bool) "more instructions" true (i1 > i0))

let test_bogus_cfg =
  scheme_test "bogus control flow"
    (fun ir ->
      let rng = Util.Rng.create 3 in
      List.iter (Obf.Ollvm.bogus_control_flow rng) ir.funcs)
    (fun (_, b0) (_, b1) ->
      Alcotest.(check bool) "more blocks" true (b1 > b0))

let test_flattening =
  scheme_test "flattening"
    (fun ir -> List.iter Obf.Ollvm.flatten ir.funcs)
    (fun _ (_, _) ->
      (* dispatcher structure asserted below *)
      ())

let test_flatten_has_dispatcher () =
  let ir = prepared "429.mcf" in
  List.iter Obf.Ollvm.flatten ir.funcs;
  let has_dispatcher (f : Vir.Ir.func) =
    List.length f.blocks <= 2
    || List.exists
         (fun (b : Vir.Ir.block) ->
           match b.term with
           | Vir.Ir.Switch (_, cases, _) -> List.length cases >= 2
           | _ -> false)
         f.blocks
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Vir.Ir.fname ^ " flattened through a dispatcher")
        true (has_dispatcher f))
    ir.funcs

let test_obfuscation_hurts_binhunt () =
  (* the paper's Figure 8(b) premise: O-LLVM output is measurably
     different from the unobfuscated build *)
  let cfg =
    Toolchain.Flags.resolve Toolchain.Flags.llvm Toolchain.Flags.llvm.preset_o1
  in
  let prog = Corpus.program (Corpus.find "429.mcf") in
  let plain_ir = Toolchain.Pipeline.apply_passes cfg prog in
  let obf_ir = Toolchain.Pipeline.apply_passes cfg prog in
  Obf.Ollvm.apply_all ~seed:9 obf_ir;
  let compile ir =
    Codegen.Emit.compile_program
      ~options:cfg.Toolchain.Config.codegen
      ~arch:Isa.Insn.X86_64 ~profile:"llvm-11.0" ~opt_label:"t" ir
  in
  let plain = compile plain_ir and obf = compile obf_ir in
  Alcotest.(check bool) "binhunt sees the obfuscation" true
    (Diffing.Binhunt.diff_score obf plain > 0.25)

let test_obfuscation_deterministic () =
  let build () =
    let ir = prepared "429.mcf" in
    Obf.Ollvm.apply_all ~seed:5 ir;
    Vir.Ir.program_to_string ir
  in
  Alcotest.(check bool) "same seed, same output" true (build () = build ())

let tests =
  [
    Alcotest.test_case "instruction substitution" `Quick test_substitution;
    Alcotest.test_case "bogus control flow" `Quick test_bogus_cfg;
    Alcotest.test_case "flattening behaviour" `Quick test_flattening;
    Alcotest.test_case "flattening dispatcher" `Quick test_flatten_has_dispatcher;
    Alcotest.test_case "binhunt sensitivity" `Quick test_obfuscation_hurts_binhunt;
    Alcotest.test_case "determinism" `Quick test_obfuscation_deterministic;
  ]
