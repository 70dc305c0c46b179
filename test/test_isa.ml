(* Codec and binary-analysis tests. *)

open Isa.Insn

let sample_insns =
  [
    Imov (3, Oimm 0);
    Imov (5, Oimm (-7));
    Imov (5, Oimm 1234567890123456);
    Ialu (Amul, 1, 2, Oreg 3);
    Ialu (Ashr, 7, 7, Oimm 62);
    Ineg (0, 1);
    Inot (2, 3);
    Icmp (4, Oimm 100);
    Itest (5, 6);
    Isetcc (Cle, 2);
    Icmov (Cne, 3, Oreg 9);
    Ijmp 0x1234;
    Ijcc (Cge, 77);
    Ijtab (2, [ 10; 20; 30; 40; 50 ]);
    Iloop (6, 0x42);
    Ild (1, 513, Oreg 2);
    Ist (513, Oimm 4, Oreg 5);
    Ist (7, Oreg 1, Oimm (-3));
    Ildf (3, FP_rel, -24, Oimm 0);
    Istf (SP_rel, 16, Oreg 2, Oimm 9);
    Ipush (Oreg 12);
    Ipop 11;
    Icall 42;
    Icallr 15;
    Ila (4, 99);
    Iret;
    Ijmpf 3;
    Ivld (3, 5, Oreg 1);
    Ivst (5, Oimm 8, 3);
    Ivalu (Aadd, 1, 2, 3);
    Ivsplat (0, Oimm 7);
    Ivpack (1, Oimm 1, Oimm 2, Oreg 3, Oimm 4);
    Ivred (Aadd, 5, 2);
    Ivldf (1, FP_rel, -8, Oreg 0);
    Ivstf (SP_rel, 0, Oimm 4, 2);
    Iprint (Oreg 0);
    Iprintc (Oimm 10);
    Iread (1, Oimm 0);
    Ilen 2;
    Inop;
    Iinc 3;
    Idec 9;
    Ixorz 14;
  ]

(* encode a stream with correct per-instruction placement offsets *)
let encode_stream arch insns =
  let buf = Buffer.create 256 in
  List.iter
    (fun i ->
      Buffer.add_string buf (Isa.Codec.encode ~at:(Buffer.length buf) arch i))
    insns;
  Buffer.contents buf

let test_roundtrip_all_arches () =
  List.iter
    (fun arch ->
      let enc = encode_stream arch sample_insns in
      let dec = ref [] in
      Isa.Codec.sweep arch enc ~pos:0 ~stop:(String.length enc) (fun _ i _ ->
          dec := i :: !dec);
      let dec = List.rev !dec in
      Alcotest.(check bool) (arch_name arch ^ " roundtrip") true (dec = sample_insns))
    all_arches

let test_arch_encodings_differ () =
  let enc arch = Isa.Codec.encode arch (Ialu (Aadd, 1, 2, Oreg 3)) in
  let all = List.map enc all_arches in
  Alcotest.(check int) "four distinct encodings" 4
    (List.length (List.sort_uniq compare all))

let test_pc_relative_stability () =
  (* the same loop body encodes identically wherever it is placed: the
     property the NCD fitness relies on *)
  let body at =
    String.concat ""
      [
        Isa.Codec.encode ~at X86_64 (Ialu (Aadd, 1, 1, Oimm 1));
        Isa.Codec.encode ~at:(at + 8) X86_64 (Icmp (1, Oimm 10));
        Isa.Codec.encode ~at:(at + 16) X86_64 (Ijcc (Clt, at));
      ]
  in
  Alcotest.(check bool) "position independent" true (body 0 = body 4096)

let test_word_alignment () =
  List.iter
    (fun arch ->
      List.iter
        (fun i ->
          let len = Isa.Codec.encoded_length arch i in
          Alcotest.(check int) "word aligned" 0 (len mod 4))
        sample_insns)
    [ Arm; Mips ]

let test_decode_rejects_garbage () =
  match Isa.Codec.decode X86_64 "\xff\xff\xff" ~pos:0 with
  | exception Invalid_argument _ -> ()
  | _ ->
    (* 0xff may decode to a valid opcode; truncation must still fail *)
    ()

let prop_roundtrip_random_mov =
  QCheck.Test.make ~name:"codec roundtrip random movs" ~count:300
    QCheck.(triple (0 -- 15) (oneofl all_arches) int)
    (fun (r, arch, n) ->
      let i = Imov (r, Oimm n) in
      let enc = Isa.Codec.encode arch i in
      let dec, next = Isa.Codec.decode arch enc ~pos:0 in
      dec = i && next = String.length enc)

(* --- binary analysis --- *)

let simple_binary () =
  let prog = Minic.Sema.analyze "int f(int x) { if (x > 0) { return x; } return -x; } int main() { print_int(f(input(0))); return 0; }" in
  Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2" prog

let test_analyze_functions () =
  let bin = simple_binary () in
  let c = Diffing.Bcode.analyze bin in
  Alcotest.(check bool) "has f and main" true
    (Array.exists (fun f -> f.Diffing.Bcode.name = "f") c.funcs
    && Array.exists (fun f -> f.Diffing.Bcode.name = "main") c.funcs);
  Array.iter
    (fun (f : Diffing.Bcode.func) ->
      Alcotest.(check bool) (f.name ^ " has blocks") true (Array.length f.blocks > 0);
      (* every successor id is a valid block id *)
      Array.iter
        (fun (b : Diffing.Bcode.block) ->
          List.iter
            (fun s ->
              Alcotest.(check bool) "succ in range" true
                (s >= 0 && s < Array.length f.blocks))
            b.succs)
        f.blocks)
    c.funcs

let test_call_graph () =
  (* compile at O0 so the call survives inlining *)
  let prog =
    Minic.Sema.analyze
      "int f(int x) { if (x > 0) { return x; } return -x; } int main() { print_int(f(input(0))); return 0; }"
  in
  let bin = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O0" prog in
  let c = Diffing.Bcode.analyze bin in
  let main =
    Array.to_list c.funcs |> List.find (fun f -> f.Diffing.Bcode.name = "main")
  in
  let fid =
    let found = ref (-1) in
    Array.iteri
      (fun i (name, _, _) -> if name = "f" then found := i)
      bin.Isa.Binary.functions;
    !found
  in
  Alcotest.(check bool) "main calls f" true (List.mem fid main.calls)

let test_library_flagging () =
  let bin = simple_binary () in
  let c = Diffing.Bcode.analyze bin in
  let strlen =
    Array.to_list c.funcs |> List.find (fun f -> f.Diffing.Bcode.name = "strlen")
  in
  Alcotest.(check bool) "strlen is library" true strlen.is_library

let tests =
  [
    Alcotest.test_case "roundtrip all arches" `Quick test_roundtrip_all_arches;
    Alcotest.test_case "encodings differ" `Quick test_arch_encodings_differ;
    Alcotest.test_case "word alignment" `Quick test_word_alignment;
    Alcotest.test_case "garbage decode" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "pc-relative stability" `Quick test_pc_relative_stability;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_mov;
    Alcotest.test_case "analyze functions" `Quick test_analyze_functions;
    Alcotest.test_case "call graph" `Quick test_call_graph;
    Alcotest.test_case "library flagging" `Quick test_library_flagging;
  ]
