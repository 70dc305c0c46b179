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

let tests =
  [ Alcotest.test_case "corpus digest" `Quick test_corpus_digest ]
