(* Cache-correctness tests for the compile-memo layer, the NCD size
   cache, and the persisted tuning database.

   Memoization is only legal because compilation is a pure function of
   (profile, arch, flag vector, AST) — and size caching because
   compression is a pure function of the stream bytes.  These tests pin
   that down from several directions:

   - a full [Tuner.tune] run with the memo on must equal the same run
     on a session whose memo admits nothing, while the counters satisfy
     the conservation invariant [memo.hit_on + memo.miss_on =
     memo.miss_off];
   - [Memo.find_or_compile] must return structurally identical binaries
     to a fresh pipeline compile, for random repaired vectors;
   - every (vector, ncd) pair a tuned run persists through [Database]
     must agree with a from-scratch recompile + NCD — so lookups over
     repair-induced duplicate vectors can never diverge from a fresh
     compile. *)

let term_small =
  { Search.max_evaluations = 60; plateau_window = 40; plateau_epsilon = 0.0035 }

let test_memo_on_off_equal () =
  List.iter
    (fun (name, profile) ->
      let bench = Corpus.find name in
      let on = Bintuner.Tuner.tune ~termination:term_small ~profile bench in
      let off =
        let session = Bintuner.Session.create ~memo_max_bytes:0 () in
        Fun.protect
          ~finally:(fun () -> Bintuner.Session.close session)
          (fun () ->
            Bintuner.Tuner.tune ~termination:term_small ~session ~profile bench)
      in
      let counter = Bintuner.Tuner.counter in
      let label = name ^ "/" ^ profile.Toolchain.Flags.profile_name in
      Alcotest.(check (list bool))
        (label ^ ": best_vector") (Array.to_list on.best_vector)
        (Array.to_list off.best_vector);
      Alcotest.(check (float 0.0))
        (label ^ ": best_ncd") on.best_ncd off.best_ncd;
      Alcotest.(check int) (label ^ ": iterations") on.iterations off.iterations;
      Alcotest.(check (list (pair int (float 0.0))))
        (label ^ ": history") on.history off.history;
      Alcotest.(check (list bool))
        (label ^ ": refined_vector")
        (Array.to_list on.refined_vector)
        (Array.to_list off.refined_vector);
      (* the memo actually worked... *)
      Alcotest.(check bool) (label ^ ": memo saw hits") true
        (counter on "memo.hit" >= 1);
      Alcotest.(check int) (label ^ ": no hits when disabled") 0
        (counter off "memo.hit");
      (* ...and the traffic is conserved: every request the disabled run
         compiled was either compiled or served from cache by the enabled
         run *)
      Alcotest.(check int)
        (label ^ ": hits + compilations invariant")
        (counter off "memo.miss")
        (counter on "memo.hit" + counter on "memo.miss"))
    [ ("462.libquantum", Toolchain.Flags.llvm); ("429.mcf", Toolchain.Flags.gcc) ]

(* [Memo.find_or_compile] vs a fresh pipeline compile, on random repaired
   vectors — twice through the memo, so the second request is a
   guaranteed cache hit. *)
let prop_memo_matches_fresh_compile =
  QCheck.Test.make ~name:"memo-served binaries equal fresh compiles" ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (bseed, vseed) ->
      let bench =
        List.nth Corpus.all (bseed mod List.length Corpus.all)
      in
      let prog = Corpus.program bench in
      let profile =
        if vseed mod 2 = 0 then Toolchain.Flags.gcc else Toolchain.Flags.llvm
      in
      let rng = Util.Rng.create (vseed * 7 + 3) in
      let n = Array.length profile.flags in
      let v =
        Toolchain.Constraints.repair profile rng
          (Array.init n (fun _ -> Util.Rng.bool rng))
      in
      let memo = Bintuner.Memo.create () in
      let key =
        Bintuner.Memo.key
          ~program:(Digest.to_hex (Digest.string bench.Corpus.source))
          ~profile:profile.profile_name ~arch:Isa.Insn.X86_64 v
      in
      let compile () = Toolchain.Pipeline.compile_flags profile v prog in
      let first = Bintuner.Memo.find_or_compile memo ~key compile in
      let second = Bintuner.Memo.find_or_compile memo ~key compile in
      let fresh = compile () in
      first = fresh && second = fresh
      && Bintuner.Memo.hits memo = 1
      && Bintuner.Memo.misses memo = 1)

(* The memo's byte budget must hold while two worker domains hammer it
   with more distinct entries than the budget admits — eviction runs
   under the same lock as admission, so the bound is an invariant, not a
   steady-state.  Values served under eviction pressure stay correct. *)
let test_memo_byte_bound_under_parallelism () =
  let mkbin i =
    {
      Isa.Binary.arch = Isa.Insn.X86_64;
      profile = "gcc-10.2";
      opt_label = "test";
      text = String.make 2048 (Char.chr (65 + (i mod 26)));
      data = "";
      data_words = [||];
      symbols = [||];
      functions = [||];
      entry = 0;
      ret_reg = 0;
    }
  in
  (* each entry costs ~2 KiB + overhead, so a 16 KiB budget holds only a
     handful of the 64 distinct keys — constant eviction *)
  let budget = 16 * 1024 in
  let memo = Bintuner.Memo.create ~max_bytes:budget () in
  Parallel.Pool.with_pool 2 (fun pool ->
      let results =
        Parallel.Pool.map pool
          (fun i ->
            let k = i mod 64 in
            let b =
              Bintuner.Memo.find_or_compile memo
                ~key:(Printf.sprintf "k%d" k)
                (fun () -> mkbin k)
            in
            b.Isa.Binary.text.[0])
          (Array.init 512 (fun i -> i))
      in
      Array.iteri
        (fun i c ->
          Alcotest.(check char)
            (Printf.sprintf "value %d intact" i)
            (Char.chr (65 + (i mod 64 mod 26)))
            c)
        results);
  Alcotest.(check bool) "byte bound held" true
    (Bintuner.Memo.bytes memo <= budget);
  Alcotest.(check bool) "entries bounded with bytes" true
    (Bintuner.Memo.length memo * 2048 <= budget);
  Alcotest.(check bool) "evictions happened" true
    (Bintuner.Memo.evictions memo > 0);
  (* every call counts exactly one hit or one miss *)
  Alcotest.(check int) "traffic conserved" 512
    (Bintuner.Memo.hits memo + Bintuner.Memo.misses memo)

(* The persisted database of a real tuned run: every recorded fitness —
   including entries for repair-induced duplicate vectors — must be
   reproducible by a from-scratch compile, and every entry of a vector
   must carry the value its first entry recorded. *)
let prop_database_lookup_matches_fresh =
  let bench = Corpus.find "462.libquantum" in
  let profile = Toolchain.Flags.llvm in
  let result =
    lazy (Bintuner.Tuner.tune ~termination:term_small ~profile bench)
  in
  QCheck.Test.make ~name:"database lookups never diverge from a fresh compile"
    ~count:20 QCheck.small_nat (fun i ->
      let r = Lazy.force result in
      let run = Bintuner.Database.of_result r profile in
      let entries = Array.of_list run.entries in
      let vector, recorded = entries.(i mod Array.length entries) in
      let prog = Corpus.program bench in
      let baseline = Toolchain.Pipeline.compile_preset profile "O0" prog in
      let fresh = Toolchain.Pipeline.compile_flags profile vector prog in
      let recomputed = Bintuner.Tuner.fitness_of_binaries fresh baseline in
      List.assoc vector run.entries = recorded
      && recorded = [| recomputed |])

(* --- the NCD size cache --- *)

(* Cached vs uncached NCD, equal to the bit, on every corpus benchmark:
   [distance_via] over a shared Sizecache must reproduce the plain
   [distance] at the cache's level — querying each pair twice so the
   second round is served entirely from the table. *)
let test_sizecache_distance_exact () =
  let cache = Compress.Sizecache.create () in
  List.iter
    (fun bench ->
      let prog = Corpus.program bench in
      let stream preset =
        Bintuner.Tuner.code_stream
          (Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc preset prog)
      in
      let baseline = stream "O0" and candidate = stream "O2" in
      let uncached = Compress.Ncd.distance candidate baseline in
      List.iter
        (fun round ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: cached ncd, round %d" bench.Corpus.bname round)
            uncached
            (Compress.Ncd.distance_via cache candidate baseline))
        [ 1; 2 ])
    Corpus.all;
  Alcotest.(check bool) "second rounds hit" true
    (Compress.Sizecache.hits cache >= 3 * List.length Corpus.all)

(* LRU eviction changes counters, never results: a capacity-2 cache
   cycling through many distinct streams keeps evicting, yet every
   answer equals the direct computation; re-querying an evicted key
   misses again instead of lying. *)
let test_sizecache_eviction_only_counters () =
  let cache = Compress.Sizecache.create ~capacity:2 () in
  let level = Compress.Sizecache.level cache in
  let streams =
    Array.init 12 (fun i ->
        String.concat ""
          (List.init 80 (fun k -> Printf.sprintf "op%d_%d;" (i mod 5) (k mod 7))))
  in
  for round = 1 to 3 do
    Array.iteri
      (fun i s ->
        Alcotest.(check int)
          (Printf.sprintf "size stream %d round %d" i round)
          (Compress.Lz.compressed_size ~level s)
          (Compress.Sizecache.size cache s))
      streams
  done;
  Alcotest.(check bool) "bounded" true (Compress.Sizecache.length cache <= 2);
  (* 12 distinct streams through 2 slots: every round re-misses *)
  Alcotest.(check bool) "eviction forced re-misses" true
    (Compress.Sizecache.misses cache > Array.length streams)

let test_sizecache_counters () =
  let cache = Compress.Sizecache.create () in
  Alcotest.(check (pair int int)) "fresh" (0, 0)
    (Compress.Sizecache.hits cache, Compress.Sizecache.misses cache);
  let s = String.make 500 'k' in
  ignore (Compress.Sizecache.size cache s : int);
  Alcotest.(check (pair int int)) "one miss" (0, 1)
    (Compress.Sizecache.hits cache, Compress.Sizecache.misses cache);
  ignore (Compress.Sizecache.size cache s : int);
  Alcotest.(check (pair int int)) "then one hit" (1, 1)
    (Compress.Sizecache.hits cache, Compress.Sizecache.misses cache);
  (* pair keys are ordered and distinct from solo keys *)
  ignore (Compress.Sizecache.size_pair cache s "tail" : int);
  ignore (Compress.Sizecache.size_pair cache "tail" s : int);
  Alcotest.(check (pair int int)) "ordered pair keys both miss" (1, 3)
    (Compress.Sizecache.hits cache, Compress.Sizecache.misses cache);
  Alcotest.(check int) "pair size is the concatenation's"
    (Compress.Lz.compressed_size
       ~level:(Compress.Sizecache.level cache)
       (s ^ "tail"))
    (Compress.Sizecache.size_pair cache s "tail")

(* a full tuned run reports nonzero size-cache traffic, and the cached
   fitness values match the database invariant already checked above *)
let test_tuner_reports_sizecache_traffic () =
  let r =
    Bintuner.Tuner.tune ~termination:term_small ~profile:Toolchain.Flags.gcc
      (Corpus.find "429.mcf")
  in
  Alcotest.(check bool) "ncd cache saw hits" true
    (Bintuner.Tuner.counter r "sizecache.hit" > 0);
  Alcotest.(check bool) "ncd cache saw misses" true
    (Bintuner.Tuner.counter r "sizecache.miss" > 0)

(* --- the pass-prefix snapshot store --- *)

(* Raw store semantics and the counter conservation invariant:
   every lookup is exactly one hit or one miss, duplicates keep the
   first value, and an entry larger than the whole budget is refused. *)
let test_incremental_counters () =
  let module I = Bintuner.Incremental in
  let t = I.create ~max_bytes:4096 () in
  let s = I.snapshot_store t in
  Alcotest.(check (pair int int)) "fresh" (0, 0) (I.hits t, I.misses t);
  Alcotest.(check (option string)) "cold miss" None (s.find "k1");
  s.store "k1" "v1";
  Alcotest.(check (option string)) "warm hit" (Some "v1") (s.find "k1");
  s.store "k1" "v2";
  Alcotest.(check (option string)) "keep-first" (Some "v1") (s.find "k1");
  s.store "big" (String.make 8192 'x');
  Alcotest.(check (option string)) "oversized refused" None (s.find "big");
  Alcotest.(check int) "4 lookups = hits + misses" 4 (I.hits t + I.misses t);
  Alcotest.(check bool) "bytes within budget" true (I.bytes t <= 4096)

(* Eviction pressure changes counters, never results: a store far too
   small to hold every snapshot of even one compile keeps evicting
   mid-compile, yet every binary equals the scratch compile. *)
let test_incremental_eviction_only_results_intact () =
  let bench = Corpus.find "429.mcf" in
  let prog = Corpus.program bench in
  let profile = Toolchain.Flags.gcc in
  let budget = 32 * 1024 in
  let store = Bintuner.Incremental.create ~max_bytes:budget () in
  let lookups = ref 0 in
  let snapshot =
    let s = Bintuner.Incremental.snapshot_store store in
    { s with find = (fun k -> incr lookups; s.find k) }
  in
  List.iter
    (fun preset ->
      let scratch = Toolchain.Pipeline.compile_preset profile preset prog in
      let cached =
        Toolchain.Pipeline.compile_preset profile ~snapshot preset prog
      in
      Alcotest.(check bool)
        (preset ^ ": thrashing store still bit-identical")
        true (cached = scratch))
    [ "O0"; "O1"; "O2"; "O3"; "Os"; "O2"; "O3" ];
  Alcotest.(check bool) "eviction actually happened" true
    (Bintuner.Incremental.evictions store > 0);
  Alcotest.(check bool) "stayed within budget" true
    (Bintuner.Incremental.bytes store <= budget);
  Alcotest.(check int) "conservation under eviction" !lookups
    (Bintuner.Incremental.hits store + Bintuner.Incremental.misses store)

(* Concurrent tuning through one shared prefix store: -j 2 must equal
   -j 1 bit-for-bit (racing workers publish and resume snapshots in
   nondeterministic order; only counters may differ). *)
let test_tune_incremental_j_independent () =
  List.iter
    (fun (name, profile) ->
      let bench = Corpus.find name in
      let run j =
        Parallel.Pool.with_pool j (fun pool ->
            Bintuner.Tuner.tune ~termination:term_small ~pool ~profile bench)
      in
      let r1 = run 1 and r2 = run 2 in
      let label = name ^ "/" ^ profile.Toolchain.Flags.profile_name ^ " j1=j2" in
      Alcotest.(check (list bool))
        (label ^ ": best_vector") (Array.to_list r1.best_vector)
        (Array.to_list r2.best_vector);
      Alcotest.(check (float 0.0)) (label ^ ": best_ncd") r1.best_ncd r2.best_ncd;
      Alcotest.(check int) (label ^ ": iterations") r1.iterations r2.iterations;
      Alcotest.(check (list (pair int (float 0.0))))
        (label ^ ": history") r1.history r2.history;
      Alcotest.(check bool)
        (label ^ ": refined binaries bit-identical") true
        (r1.refined_binary = r2.refined_binary);
      (* both runs really exercised the store *)
      Alcotest.(check bool) (label ^ ": j1 store hit") true
        (Bintuner.Tuner.counter r1 "incr.hit" > 0);
      Alcotest.(check bool) (label ^ ": j2 store hit") true
        (Bintuner.Tuner.counter r2 "incr.hit" > 0))
    [ ("462.libquantum", Toolchain.Flags.llvm) ]

let tests =
  [
    Alcotest.test_case "memo on/off differential" `Slow test_memo_on_off_equal;
    Alcotest.test_case "incremental store counters" `Quick
      test_incremental_counters;
    Alcotest.test_case "incremental eviction only counters" `Slow
      test_incremental_eviction_only_results_intact;
    Alcotest.test_case "tune incremental j-independent" `Slow
      test_tune_incremental_j_independent;
    Alcotest.test_case "memo byte bound under -j 2" `Quick
      test_memo_byte_bound_under_parallelism;
    QCheck_alcotest.to_alcotest prop_memo_matches_fresh_compile;
    QCheck_alcotest.to_alcotest prop_database_lookup_matches_fresh;
    Alcotest.test_case "sizecache ncd exact on corpus" `Slow
      test_sizecache_distance_exact;
    Alcotest.test_case "sizecache eviction only counters" `Quick
      test_sizecache_eviction_only_counters;
    Alcotest.test_case "sizecache counters" `Quick test_sizecache_counters;
    Alcotest.test_case "tuner reports sizecache traffic" `Slow
      test_tuner_reports_sizecache_traffic;
  ]
