(* A frozen oracle for the control-flow analyses the loop passes build
   on: one MD5 over [Cfg_utils.natural_loops] and [Cfg_utils.dominators]
   for every function of every corpus program, after the O0 pipeline
   and each preset pipeline of both compiler profiles.

   The loop list is digested in the order it is returned (header, body,
   back edges), so the order among loops of equal body size — which
   [licm], [partition_blocks] and [licm_dom] process loops in — is
   pinned here directly, not only through the IR those passes produce.
   Dominator sets are digested in block layout order.  The golden value
   was recorded from the worklist-solver implementation, before the
   analyses moved to dense block indexing; do not re-record it to make
   an analysis change pass. *)

let golden = "64702ba99949fe8b6787f49fedff83c4"

let configs profile =
  List.map
    (fun name ->
      ( name,
        match Toolchain.Flags.preset profile name with
        | Some vector -> Toolchain.Flags.resolve profile vector
        | None -> Toolchain.Config.o0 ))
    Toolchain.Flags.preset_names

let add_set buf s =
  Passes.Cfg_utils.Iset.iter (fun l -> Printf.bprintf buf " %d" l) s

(* the digest, and how many loops it covers *)
let digest () =
  let buf = Buffer.create (1 lsl 16) in
  let nloops = ref 0 in
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
                  List.iter
                    (fun (l : Passes.Cfg_utils.loop) ->
                      incr nloops;
                      Printf.bprintf buf "loop %d:" l.header;
                      add_set buf l.body;
                      Buffer.add_string buf " |";
                      List.iter (Printf.bprintf buf " %d") l.back_edges;
                      Buffer.add_char buf '\n')
                    (Passes.Cfg_utils.natural_loops f);
                  let dom = Passes.Cfg_utils.dominators f in
                  Printf.bprintf buf "dom %d\n" (Hashtbl.length dom);
                  List.iter
                    (fun (blk : Vir.Ir.block) ->
                      match Hashtbl.find_opt dom blk.label with
                      | Some s ->
                        Printf.bprintf buf "%d:" blk.label;
                        add_set buf s;
                        Buffer.add_char buf '\n'
                      | None -> ())
                    f.blocks)
                ir.Vir.Ir.funcs)
            (configs profile))
        Toolchain.Flags.profiles)
    Corpus.all;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !nloops)

let test_corpus_digest () =
  let d, nloops = digest () in
  Alcotest.(check bool) "the corpus has loops" true (nloops > 100);
  Alcotest.(check string) "corpus loops/dominators digest" golden d

let tests =
  [
    Alcotest.test_case "corpus natural loops and dominators" `Slow
      test_corpus_digest;
  ]
