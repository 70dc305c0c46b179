(* The incremental-compilation differential oracle.

   [Toolchain.Pipeline] may resume a compile from any pass-prefix
   snapshot a [Bintuner.Incremental] store still holds, and may satisfy
   a whole compile from a cached emitted binary.  The contract that
   makes this legal is absolute: a compile through a store — cold, warm,
   mid-eviction, or shared with compiles of other vectors, profiles and
   arches — emits a binary bit-identical to the same compile from
   scratch.  This file pins that contract for every corpus program, both
   flag profiles, random repaired vectors and every preset, plus the
   cross-profile / cross-arch staleness hazard: snapshot keys must be
   disjoint across (program, profile, arch) contexts, so interleaving
   contexts through one shared store can never serve a stale stage.

   Like the other frozen_* oracles, the value of this file is strictness:
   do not weaken the bit-identical equality to anything fuzzier. *)

let profiles = [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ]

let random_vectors profile k seed =
  let rng = Util.Rng.create seed in
  let n = Array.length profile.Toolchain.Flags.flags in
  List.init k (fun _ ->
      Toolchain.Constraints.repair profile rng
        (Array.init n (fun _ -> Util.Rng.bool rng)))

(* Every corpus program x both profiles x random repaired vectors: the
   first compile through a fresh store exercises the cold path (probing,
   then publishing, every prefix), later vectors resume from whatever
   prefixes earlier vectors left behind, and the immediate recompile is
   the fully warm path (a whole-binary hit).  All three must equal the
   scratch compile exactly. *)
let test_differential_corpus () =
  List.iter
    (fun bench ->
      let prog = Corpus.program bench in
      List.iter
        (fun profile ->
          let pname = profile.Toolchain.Flags.profile_name in
          let store = Bintuner.Incremental.create () in
          let snapshot = Bintuner.Incremental.snapshot_store store in
          let vectors =
            random_vectors profile 3
              (Hashtbl.hash (bench.Corpus.bname, pname) + 17)
          in
          List.iteri
            (fun i v ->
              let label =
                Printf.sprintf "%s/%s vector %d" bench.Corpus.bname pname i
              in
              let scratch = Toolchain.Pipeline.compile_flags profile v prog in
              let through_store =
                Toolchain.Pipeline.compile_flags profile ~snapshot v prog
              in
              let warm =
                Toolchain.Pipeline.compile_flags profile ~snapshot v prog
              in
              Alcotest.(check bool)
                (label ^ ": store compile bit-identical to scratch")
                true
                (through_store = scratch);
              Alcotest.(check bool)
                (label ^ ": warm recompile bit-identical to scratch")
                true (warm = scratch))
            vectors;
          (* presets through the same store, against scratch presets *)
          List.iter
            (fun preset ->
              let scratch =
                Toolchain.Pipeline.compile_preset profile preset prog
              in
              let cached =
                Toolchain.Pipeline.compile_preset profile ~snapshot preset prog
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s preset %s bit-identical"
                   bench.Corpus.bname pname preset)
                true (cached = scratch))
            [ "O0"; "O2"; "Os" ];
          (* the warm recompiles above guarantee real traffic: a store
             that never hit would mean the resume path silently died *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: store saw hits" bench.Corpus.bname pname)
            true
            (Bintuner.Incremental.hits store > 0))
        profiles)
    Corpus.all

(* The staleness regression (fails first on any key scheme that omits
   profile or arch from the chain seed): one store shared by interleaved
   compiles of the SAME program under both profiles and several arches.
   Preset configurations resolve to near-identical step lists across
   profiles, so without the context in the seed the second context would
   resume from — or directly return — the first context's stages. *)
let test_profile_arch_interleaving () =
  let bench = Corpus.find "429.mcf" in
  let prog = Corpus.program bench in
  let store = Bintuner.Incremental.create () in
  let snapshot = Bintuner.Incremental.snapshot_store store in
  let contexts =
    (* interleaved on purpose: gcc, llvm, gcc, llvm, then arch changes *)
    [
      (Toolchain.Flags.gcc, Isa.Insn.X86_64, "O2");
      (Toolchain.Flags.llvm, Isa.Insn.X86_64, "O2");
      (Toolchain.Flags.gcc, Isa.Insn.X86_64, "O0");
      (Toolchain.Flags.llvm, Isa.Insn.X86_64, "O0");
      (Toolchain.Flags.llvm, Isa.Insn.Arm, "O2");
      (Toolchain.Flags.llvm, Isa.Insn.X86_64, "O2");
      (Toolchain.Flags.gcc, Isa.Insn.Mips, "O2");
      (Toolchain.Flags.gcc, Isa.Insn.X86_64, "O2");
    ]
  in
  List.iteri
    (fun i (profile, arch, preset) ->
      let label =
        Printf.sprintf "round %d: %s/%s/%s" i
          profile.Toolchain.Flags.profile_name (Isa.Insn.arch_name arch) preset
      in
      let scratch = Toolchain.Pipeline.compile_preset profile ~arch preset prog in
      let cached =
        Toolchain.Pipeline.compile_preset profile ~arch ~snapshot preset prog
      in
      Alcotest.(check bool) (label ^ " bit-identical") true (cached = scratch);
      (* the emitted binary must carry its own context, not a stale one *)
      Alcotest.(check string) (label ^ " profile")
        profile.Toolchain.Flags.profile_name cached.Isa.Binary.profile;
      Alcotest.(check string) (label ^ " arch") (Isa.Insn.arch_name arch)
        (Isa.Insn.arch_name cached.Isa.Binary.arch))
    contexts;
  Alcotest.(check bool) "interleaved store still produced hits" true
    (Bintuner.Incremental.hits store > 0)

(* The key-space disjointness that makes the interleaving safe, asserted
   directly on the seed: any change to program, profile or arch changes
   the chain seed. *)
let test_cache_seed_disjoint () =
  let p1 = Corpus.program (Corpus.find "429.mcf") in
  let p2 = Corpus.program (Corpus.find "462.libquantum") in
  let seed ~profile ~arch prog = Toolchain.Pipeline.cache_seed ~profile ~arch prog in
  let s_base = seed ~profile:"gcc-10.2" ~arch:Isa.Insn.X86_64 p1 in
  Alcotest.(check bool) "profile changes the seed" true
    (s_base <> seed ~profile:"llvm-11.0" ~arch:Isa.Insn.X86_64 p1);
  Alcotest.(check bool) "arch changes the seed" true
    (s_base <> seed ~profile:"gcc-10.2" ~arch:Isa.Insn.Arm p1);
  Alcotest.(check bool) "program changes the seed" true
    (s_base <> seed ~profile:"gcc-10.2" ~arch:Isa.Insn.X86_64 p2);
  Alcotest.(check string) "same context, same seed" s_base
    (seed ~profile:"gcc-10.2" ~arch:Isa.Insn.X86_64 p1)

(* A whole tuned run with the store on vs off: identical outcome (the
   tuner-level differential; the compile-level oracle above localizes
   any failure), with real snapshot traffic reported on the incremental
   side and none on the scratch side. *)
let test_tune_incremental_differential () =
  let term =
    { Search.max_evaluations = 60; plateau_window = 40; plateau_epsilon = 0.0035 }
  in
  List.iter
    (fun (name, profile) ->
      let bench = Corpus.find name in
      let on = Bintuner.Tuner.tune ~termination:term ~profile bench in
      let off =
        Bintuner.Tuner.tune ~termination:term ~incremental:false ~profile bench
      in
      let label = name ^ "/" ^ profile.Toolchain.Flags.profile_name in
      Alcotest.(check (list bool))
        (label ^ ": best_vector") (Array.to_list off.best_vector)
        (Array.to_list on.best_vector);
      Alcotest.(check (float 0.0)) (label ^ ": best_ncd") off.best_ncd on.best_ncd;
      Alcotest.(check int) (label ^ ": iterations") off.iterations on.iterations;
      Alcotest.(check (list (pair int (float 0.0))))
        (label ^ ": history") off.history on.history;
      Alcotest.(check (list bool))
        (label ^ ": refined_vector")
        (Array.to_list off.refined_vector)
        (Array.to_list on.refined_vector);
      Alcotest.(check bool)
        (label ^ ": refined binaries bit-identical") true
        (off.refined_binary = on.refined_binary);
      Alcotest.(check bool) (label ^ ": incremental saw hits") true
        (Bintuner.Tuner.counter on "incr.hit" > 0);
      Alcotest.(check (pair int int))
        (label ^ ": no snapshot traffic when disabled") (0, 0)
        ( Bintuner.Tuner.counter off "incr.hit",
          Bintuner.Tuner.counter off "incr.miss" ))
    [ ("462.libquantum", Toolchain.Flags.llvm); ("429.mcf", Toolchain.Flags.gcc) ]

let tests =
  [
    Alcotest.test_case "incremental differential on corpus" `Slow
      test_differential_corpus;
    Alcotest.test_case "profile/arch interleaving staleness" `Slow
      test_profile_arch_interleaving;
    Alcotest.test_case "cache seed disjointness" `Quick test_cache_seed_disjoint;
    Alcotest.test_case "tune incremental on/off differential" `Slow
      test_tune_incremental_differential;
  ]
