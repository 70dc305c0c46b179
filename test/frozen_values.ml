(* A frozen oracle for the forward value analyses SCCP and lint read:
   one MD5 over the [Constprop.solve] and [Interval.solve] in- and
   out-facts of every function of every corpus program, after the O0
   pipeline and each preset pipeline of both compiler profiles (the
   coverage of [Frozen_loops]).

   Facts are digested in block layout order, each environment's
   bindings in increasing register order.  The golden value was
   recorded from the two hand-written analyses, before they became
   instances of one value-analysis functor, and re-recorded once when
   an overflowing finite [Interval] bound began to give top (343
   interval facts of 631.deepsjeng_s's [zobrist] hash, and of [search]
   where llvm O3 inlines it, had claimed the hash is at most 0); do not
   re-record it to make an analysis change pass. *)

module CP = Analysis.Dataflow.Constprop
module IV = Analysis.Dataflow.Interval
module Imap = Analysis.Dataflow.Imap

let golden = "537c9c525b5c3936fc598352569bca77"

let add_env buf add_v env =
  Imap.iter
    (fun r v ->
      Printf.bprintf buf " %d=" r;
      add_v buf v)
    env

let add_cp buf = function
  | CP.Unreached -> Buffer.add_string buf " U"
  | CP.Env env ->
    add_env buf
      (fun buf -> function
        | CP.Const c -> Printf.bprintf buf "%d" c
        | CP.Top -> Buffer.add_char buf 'T')
      env

let add_iv buf = function
  | IV.Unreached -> Buffer.add_string buf " U"
  | IV.Env env ->
    add_env buf
      (fun buf (v : IV.itv) -> Printf.bprintf buf "[%d,%d]" v.lo v.hi)
      env

(* the digest, and how many blocks it covers *)
let digest () =
  let buf = Buffer.create (1 lsl 16) in
  let nblocks = ref 0 in
  let fact tbl l add =
    match Hashtbl.find_opt tbl l with
    | Some v -> add buf v
    | None -> Buffer.add_string buf " -"
  in
  List.iter
    (fun (b : Corpus.benchmark) ->
      let prog = Corpus.program b in
      List.iter
        (fun profile ->
          List.iter
            (fun (name, cfg) ->
              let ir = Toolchain.Pipeline.apply_passes cfg prog in
              List.iter
                (fun (f : Vir.Ir.func) ->
                  Printf.bprintf buf "%s/%s/%s/%s\n" b.bname
                    profile.Toolchain.Flags.profile_name name f.fname;
                  let cp_in, cp_out = CP.solve f in
                  let iv_in, iv_out = IV.solve f in
                  List.iter
                    (fun (blk : Vir.Ir.block) ->
                      incr nblocks;
                      let l = blk.label in
                      Printf.bprintf buf "%d cp in" l;
                      fact cp_in l add_cp;
                      Buffer.add_string buf " out";
                      fact cp_out l add_cp;
                      Buffer.add_string buf "\n iv in";
                      fact iv_in l add_iv;
                      Buffer.add_string buf " out";
                      fact iv_out l add_iv;
                      Buffer.add_char buf '\n')
                    f.blocks)
                ir.Vir.Ir.funcs)
            (Frozen_loops.configs profile))
        Toolchain.Flags.profiles)
    Corpus.all;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !nblocks)

let test_corpus_digest () =
  let d, nblocks = digest () in
  Alcotest.(check bool) "the corpus has blocks" true (nblocks > 1000);
  Alcotest.(check string) "corpus constprop/interval digest" golden d

let tests =
  [
    Alcotest.test_case "corpus constprop and interval facts" `Slow
      test_corpus_digest;
  ]
