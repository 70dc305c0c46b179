(* A frozen oracle for the VX virtual machine: one MD5 over every run
   the functional-correctness check can make on the shipped corpus.

   Every [Corpus.all] program is compiled for x86-64 at each of the
   gcc and llvm presets O0, O1, O2, O3 and Os, and run on each of its
   workload inputs.  Each run contributes its output stream, return
   value and dynamic step count (or the trap it raised) to the digest.
   The golden value was recorded from the VM as it stood before its
   stack became a segment grown on demand; any change to the VM's
   observable behaviour on the corpus moves it.  Do not re-record it to
   make a VM change pass. *)

let golden = "84107d36cdf88a2efe59498687f4e2c1"

let presets = [ "O0"; "O1"; "O2"; "O3"; "Os" ]

let profiles = [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ]

let digest () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (b : Corpus.benchmark) ->
      let prog = Corpus.program b in
      List.iter
        (fun profile ->
          List.iter
            (fun preset ->
              let bin =
                Toolchain.Pipeline.compile_preset profile ~arch:Isa.Insn.X86_64
                  preset prog
              in
              List.iteri
                (fun k input ->
                  Printf.bprintf buf "%s/%s/%s/%d:" b.bname
                    bin.Isa.Binary.profile preset k;
                  (match Vm.Machine.run bin ~input with
                  | r ->
                    Printf.bprintf buf "%S|%d|%d"
                      (Vir.Interp.output_to_string r.output)
                      r.return_value r.steps
                  | exception Vm.Machine.Trap msg ->
                    Printf.bprintf buf "trap %S" msg
                  | exception Vm.Machine.Out_of_fuel ->
                    Buffer.add_string buf "out of fuel");
                  Buffer.add_char buf '\n')
                b.workloads)
            presets)
        profiles)
    Corpus.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_corpus_digest () =
  Alcotest.(check string) "corpus VM digest" golden (digest ())

(* The same kind of oracle for IMF-SIM, the diffing tool that runs the
   VM: one MD5 over its whole function-similarity matrix of every corpus
   program's O0 binary against its O2 binary, for both profiles.  Each
   entry depends on every probe's return value, output stream and trap
   or fuel outcome.  Recorded from the VM as it stood when every probe
   decoded the whole text again; do not re-record it to make a VM change
   pass. *)
let imfsim_golden = "aa47e7d8384bce9ae6bac285dd1c9668"

let imfsim =
  List.find
    (fun t -> t.Diffing.Tools.tool_name = "IMF-SIM")
    Diffing.Tools.all

let imfsim_digest () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (b : Corpus.benchmark) ->
      let prog = Corpus.program b in
      List.iter
        (fun profile ->
          let analyze preset =
            Diffing.Bcode.analyze
              (Toolchain.Pipeline.compile_preset profile ~arch:Isa.Insn.X86_64
                 preset prog)
          in
          let a = analyze "O0" and c = analyze "O2" in
          let sim = imfsim.Diffing.Tools.similarity a c in
          Printf.bprintf buf "%s/%s\n" b.bname
            profile.Toolchain.Flags.profile_name;
          Array.iteri
            (fun i _ ->
              Array.iteri
                (fun j _ -> Printf.bprintf buf "%h " (sim i j))
                c.Diffing.Bcode.funcs;
              Buffer.add_char buf '\n')
            a.Diffing.Bcode.funcs)
        profiles)
    Corpus.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_imfsim_digest () =
  Alcotest.(check string) "corpus IMF-SIM digest" imfsim_golden
    (imfsim_digest ())

let tests =
  [
    Alcotest.test_case "corpus digest" `Quick test_corpus_digest;
    Alcotest.test_case "imfsim digest" `Quick test_imfsim_digest;
  ]
