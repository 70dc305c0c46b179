(* A frozen oracle for CFG recovery from binary code: one MD5 over the
   blocks [Isa.Binary.analyze] builds by linear sweep and the blocks,
   instructions and unreachable-byte counts [Binsight.Disasm.recover]
   builds by recursive descent.

   Every [Corpus.all] program is compiled at O0 and O2 by both compiler
   profiles for all four architectures.  Each block contributes its
   leader, its instructions (with their offsets) and its successors; the
   descent also contributes every reachable instruction with its next
   offset and the function's unreachable byte count.  The golden value
   was recorded while the linear sweep and the descent still split
   blocks by separate code; do not re-record it to make a decoder or
   splitter change pass. *)

let golden = "e67c05f23daa08b653f6196ca6a7305d"

let archs = [ Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips ]

let add buf v =
  Buffer.add_string buf (Marshal.to_string v [ Marshal.No_sharing ])

(* the digest, and how many blocks it covers *)
let digest () =
  let buf = Buffer.create (1 lsl 20) in
  let nblocks = ref 0 in
  List.iter
    (fun (b : Corpus.benchmark) ->
      let prog = Corpus.program b in
      List.iter
        (fun profile ->
          List.iter
            (fun arch ->
              List.iter
                (fun preset ->
                  let bin =
                    Toolchain.Pipeline.compile_preset profile ~arch preset prog
                  in
                  Printf.bprintf buf "%s/%s/%s/%s\n" b.bname
                    profile.Toolchain.Flags.profile_name
                    (Isa.Insn.arch_name arch) preset;
                  List.iter
                    (fun (f : Isa.Binary.bfunc) ->
                      Printf.bprintf buf "linear %s\n" f.f_name;
                      List.iter
                        (fun (blk : Isa.Binary.bblock) ->
                          incr nblocks;
                          add buf (blk.b_addr, blk.b_insns, blk.b_succs))
                        f.f_blocks)
                    (Isa.Binary.analyze bin);
                  let d = Binsight.Disasm.recover bin in
                  List.iter
                    (fun (fd : Binsight.Disasm.func_disasm) ->
                      Printf.bprintf buf "descent %s %d\n" fd.d_name
                        fd.d_unreachable;
                      add buf fd.d_insns;
                      List.iter
                        (fun (blk : Binsight.Disasm.bblock) ->
                          incr nblocks;
                          add buf (blk.rb_addr, blk.rb_insns, blk.rb_succs))
                        fd.d_blocks)
                    d.funcs;
                  Printf.bprintf buf "totals %d %d\n" d.total_insns
                    d.total_unreachable)
                [ "O0"; "O2" ])
            archs)
        Toolchain.Flags.profiles)
    Corpus.all;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !nblocks)

let test_corpus_digest () =
  let d, nblocks = digest () in
  Alcotest.(check bool) "the corpus has blocks" true (nblocks > 1000);
  Alcotest.(check string) "corpus CFG recovery digest" golden d

let tests =
  [
    Alcotest.test_case "corpus linear and descent CFGs" `Slow
      test_corpus_digest;
  ]
