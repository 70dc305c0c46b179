(* Binary static-analysis subsystem (lib/binsight) tests: the
   corpus-wide disassembler differential, the gadget-census DP vs its
   brute-force reference on fuzzed programs, frozen golden digests of
   the inspect JSON, stack-bound sanity and the count of linear sweeps
   one inspect makes. *)

let archs = [ Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips ]

let inspect_bench ?(profile = Toolchain.Flags.gcc) ?(arch = Isa.Insn.X86_64)
    ?(preset = "O2") program name =
  let boundaries = Hashtbl.create 64 in
  let bin =
    Toolchain.Pipeline.compile_preset profile ~arch ~boundaries preset program
  in
  (bin, Binsight.Report.inspect ~bench:name ~preset ~ground_truth:boundaries bin)

(* Every corpus program, on every arch, at the extreme presets: the
   recursive descent, the linear sweep and the compiler's ground-truth
   instruction boundaries must agree exactly.  Any mismatch is a real
   defect in codec, assembler or CFG recovery. *)
let test_corpus_differential () =
  List.iter
    (fun (b : Corpus.benchmark) ->
      let program = Corpus.program b in
      List.iter
        (fun arch ->
          List.iter
            (fun preset ->
              let _, r = inspect_bench ~arch ~preset program b.bname in
              Alcotest.(check int)
                (Printf.sprintf "%s %s %s: zero mismatches" b.bname
                   (Isa.Insn.arch_name arch) preset)
                0
                (Binsight.Report.mismatch_count r))
            [ "O0"; "O3" ])
        archs)
    Corpus.all

(* The right-to-left census DP must agree with the O(text·k)
   re-decoding brute force on arbitrary compiled programs. *)
let prop_census_matches_brute =
  QCheck.Test.make ~name:"gadget census DP = brute-force reference" ~count:40
    QCheck.small_nat (fun seed ->
      let prog = Fuzzgen.generate (seed + 9000) in
      let arch = List.nth archs (seed mod 4) in
      let preset = List.nth [ "O0"; "O1"; "O2"; "O3"; "Os" ] (seed mod 5) in
      let profile =
        if seed mod 2 = 0 then Toolchain.Flags.gcc else Toolchain.Flags.llvm
      in
      let bin = Toolchain.Pipeline.compile_preset profile ~arch preset prog in
      let k = 2 + (seed mod 5) in
      let a = Binsight.Gadgets.census ~k bin in
      let b = Binsight.Gadgets.census_brute ~k bin in
      let gkey (g : Binsight.Gadgets.gadget) =
        (g.g_addr, g.g_len, g.g_insns, g.g_bytes, g.g_class)
      in
      a.c_sites = b.c_sites
      && a.c_ret = b.c_ret && a.c_jump = b.c_jump && a.c_call = b.c_call
      && List.map gkey a.c_unique = List.map gkey b.c_unique
      && a.c_per_function = b.c_per_function)

(* Frozen digests of the full inspect JSON for two corpus benchmarks at
   a fixed configuration.  A digest change means the report (disasm
   counts, census, features, provenance vector or the JSON rendering
   itself) changed and EXPERIMENTS.md baselines need re-checking. *)
let test_golden_digests () =
  List.iter
    (fun (name, expected) ->
      let b = Corpus.find name in
      let _, r = inspect_bench (Corpus.program b) b.bname in
      let s = Util.Json.to_string (Binsight.Report.to_json r) in
      Alcotest.(check string)
        (name ^ " inspect JSON digest")
        expected
        (Digest.to_hex (Digest.string s)))
    [
      ("462.libquantum", "492123db037a28916be6b4afef6a5054");
      ("openssl", "1f6f2b81900699b70619825fec5adda1");
    ]

(* Corpus functions are structured code: every stack-depth bound is
   finite and non-negative, and the entry function is always reachable
   in the recovered call graph. *)
let test_stack_bounds_finite () =
  List.iter
    (fun name ->
      let b = Corpus.find name in
      List.iter
        (fun arch ->
          let _, r = inspect_bench ~arch (Corpus.program b) b.bname in
          let feats = r.Binsight.Report.r_features in
          List.iter
            (fun (ff : Binsight.Features.func_features) ->
              match ff.ff_stack with
              | Binsight.Features.Finite d ->
                if d < 0 then
                  Alcotest.failf "%s/%s: negative stack bound %d" b.bname
                    ff.ff_name d
              | Binsight.Features.Unbounded ->
                Alcotest.failf "%s/%s: unbounded stack" b.bname ff.ff_name)
            feats.per_function;
          let bin = r.Binsight.Report.r_bin in
          let entry_name, _, _ =
            bin.Isa.Binary.functions.(bin.Isa.Binary.entry)
          in
          if List.mem entry_name feats.dead_functions then
            Alcotest.failf "%s: entry %s marked dead" b.bname entry_name)
        archs)
    [ "462.libquantum"; "429.mcf" ]

(* One inspect decodes each function's range once, for the CFGs, and
   the whole text once, for the features.  The recursive descent and the
   gadget census decode at chosen offsets and are not sweeps. *)
let test_inspect_sweeps () =
  let b = Corpus.find "462.libquantum" in
  let bin =
    Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
      (Corpus.program b)
  in
  let per_function =
    List.fold_left
      (fun acc (f : Isa.Binary.bfunc) -> acc + List.length f.f_insns)
      0 (Isa.Binary.analyze bin)
  in
  let whole_text = String.length (Diffing.Bcode.code_stream bin) in
  let t = Telemetry.create () in
  Telemetry.set_global t;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_global Telemetry.null)
    (fun () -> ignore (Binsight.Report.inspect bin));
  Alcotest.(check bool) "the binary has code" true (whole_text > 0);
  Alcotest.(check int) "swept instructions: per function + one whole text"
    (per_function + whole_text)
    (Telemetry.counter_value t "isa.sweep.insns")

let tests =
  [
    Alcotest.test_case "corpus disassembly differential" `Quick
      test_corpus_differential;
    QCheck_alcotest.to_alcotest prop_census_matches_brute;
    Alcotest.test_case "inspect JSON golden digests" `Quick
      test_golden_digests;
    Alcotest.test_case "stack bounds finite on corpus" `Quick
      test_stack_bounds_finite;
    Alcotest.test_case "inspect sweeps the text once" `Quick
      test_inspect_sweeps;
  ]
