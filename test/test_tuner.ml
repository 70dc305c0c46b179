(* Tests for the search stack: the GA strategy on the shared engine, the
   BinTuner loop, the AV fleet, the provenance classifier, and the NCD
   fitness.  (The strategy-contract harness covering every registered
   strategy lives in test_search.ml.) *)

let quick_term =
  { Search.max_evaluations = 120; plateau_window = 60; plateau_epsilon = 0.0035 }

let run_ga ?(params = Search.Genetic.default_params) ~rng ~termination ~ngenes
    ~seeds ~repair ~fitness () =
  Search.run ~rng ~termination
    ~problem:{ Search.ngenes; seeds; repair }
    ~fitness:(fun g -> [| fitness g |])
    (Search.Genetic.strategy ~params ())

(* --- genetic algorithm on a known landscape --- *)

let test_ga_onemax () =
  (* fitness = number of set bits; the GA must get close to all-ones *)
  let rng = Util.Rng.create 7 in
  let outcome =
    run_ga ~rng
      ~termination:
        { Search.max_evaluations = 600; plateau_window = 200; plateau_epsilon = 0.001 }
      ~ngenes:24 ~seeds:[] ~repair:(fun g -> g)
      ~fitness:(fun g ->
        float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 g))
      ()
  in
  Alcotest.(check bool) "near optimum" true (outcome.Search.best_fitness >= 22.0)

let test_ga_respects_repair () =
  (* repair forces gene 0 off; the best genome must respect that *)
  let rng = Util.Rng.create 9 in
  let outcome =
    run_ga ~rng ~termination:quick_term ~ngenes:8 ~seeds:[]
      ~repair:(fun g ->
        g.(0) <- false;
        g)
      ~fitness:(fun g -> if g.(0) then 100.0 else 1.0)
      ()
  in
  Alcotest.(check bool) "gene 0 forced off" false outcome.Search.best.(0)

let test_ga_deterministic () =
  let run seed =
    let rng = Util.Rng.create seed in
    (run_ga ~rng ~termination:quick_term ~ngenes:16 ~seeds:[]
       ~repair:(fun g -> g)
       ~fitness:(fun g ->
         float_of_int (Hashtbl.hash (Array.to_list g) mod 1000))
       ())
      .Search.best_fitness
  in
  Alcotest.(check (float 1e-9)) "same seed same outcome" (run 3) (run 3)

let test_ga_history_monotone () =
  let rng = Util.Rng.create 11 in
  let outcome =
    run_ga ~rng ~termination:quick_term ~ngenes:12 ~seeds:[]
      ~repair:(fun g -> g)
      ~fitness:(fun g ->
        float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 g))
      ()
  in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "best-so-far is monotone" true
    (monotone outcome.Search.history)

let test_ga_keeps_all_seeds () =
  (* population sizing regression: with more seed vectors than
     [population_size], the initial population used to be truncated to
     the nominal size, silently discarding later seeds.  Plant the only
     high-fitness genome as the *last* seed with a budget too small for
     the search to rediscover it: the GA must still evaluate it. *)
  let ngenes = 48 in
  let magic = Array.init ngenes (fun i -> i mod 2 = 0) in
  let seeds =
    List.init 4 (fun k ->
        Array.init ngenes (fun i -> i = k) (* four distinct low genomes *))
    @ [ Array.copy magic ]
  in
  let rng = Util.Rng.create 5 in
  let outcome =
    run_ga ~rng
      ~params:{ Search.Genetic.default_params with population_size = 2 }
      ~termination:
        { Search.max_evaluations = 8; plateau_window = 1000; plateau_epsilon = 0.0 }
      ~ngenes ~seeds
      ~repair:(fun g -> g)
      ~fitness:(fun g -> if g = magic then 1000.0 else 0.0)
      ()
  in
  Alcotest.(check (float 1e-9)) "last seed evaluated" 1000.0
    outcome.Search.best_fitness;
  Alcotest.(check bool) "all five seeds scored" true
    (outcome.Search.evaluations >= 5)

(* --- the tuner --- *)

let tuned =
  lazy
    (Bintuner.Tuner.tune ~termination:quick_term ~profile:Toolchain.Flags.llvm
       (Corpus.find "462.libquantum"))

let test_tuner_beats_presets_on_fitness () =
  let r = Lazy.force tuned in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) ("fitness >= " ^ name) true (r.best_ncd >= v -. 1e-9))
    r.preset_ncd

let test_tuner_functional () =
  let r = Lazy.force tuned in
  Alcotest.(check bool) "tuned binary passes workloads" true r.functional_ok

let test_tuner_database () =
  let r = Lazy.force tuned in
  Alcotest.(check int) "database records every compilation" r.iterations
    (List.length r.database);
  List.iter
    (fun e ->
      Alcotest.(check bool) "fitness in range" true
        (Array.length e.Bintuner.Tuner.fitness = 1
        && e.fitness.(0) >= 0.0
        && e.fitness.(0) <= 1.2))
    r.database

let test_tuner_vector_valid () =
  let r = Lazy.force tuned in
  Alcotest.(check bool) "best vector satisfies constraints" true
    (Toolchain.Constraints.valid Toolchain.Flags.llvm r.best_vector)

(* One counter list: the session's names in their fixed order, then the
   evaluator's; an unknown name is a programming error, not a 0. *)
let test_tuner_counters () =
  let r = Lazy.force tuned in
  Alcotest.(check (list string))
    "counter names"
    [
      "memo.hit"; "memo.miss"; "memo.evict"; "sizecache.hit"; "sizecache.miss";
      "incr.hit"; "incr.miss"; "incr.evict"; "check.hit"; "check.miss";
      "check.evict"; "store.hit"; "store.miss";
      "store.evict"; "store.quarantine"; "objective.memo.hit";
      "objective.memo.miss";
    ]
    (List.map fst r.counters);
  Alcotest.(check bool) "the run compiled" true
    (Bintuner.Tuner.counter r "memo.miss" > 0);
  Alcotest.check_raises "unknown counter name"
    (Invalid_argument "Tuner.counter: unknown counter memo.hits") (fun () ->
      ignore (Bintuner.Tuner.counter r "memo.hits" : int))

(* --- the functional check, read through the final-selection cache --- *)

let check_bench = Corpus.find "473.astar"

let o0 bench =
  Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O0"
    (Corpus.program bench)

let check_traffic s =
  Bintuner.Session.check_counters (Bintuner.Session.check s)

let with_session f =
  let s = Bintuner.Session.create () in
  Fun.protect ~finally:(fun () -> Bintuner.Session.close s) (fun () -> f s)

(* Another program's O0 is a wrong answer: [false] when computed, and
   [false] again when served from the cache. *)
let test_functional_check_wrong_candidate () =
  with_session (fun s ->
      let baseline = o0 check_bench in
      let wrong = o0 (Corpus.find "429.mcf") in
      let check () =
        Bintuner.Session.functional_check (Bintuner.Session.check s)
          check_bench ~baseline wrong
      in
      Alcotest.(check bool) "first call" false (check ());
      Alcotest.(check bool) "cached call" false (check ());
      Alcotest.(check (list (pair string int)))
        "reference and verdict computed once, then one hit"
        [ ("check.hit", 1); ("check.miss", 2); ("check.evict", 0) ]
        (check_traffic s);
      Alcotest.(check bool) "the baseline passes against itself" true
        (Bintuner.Session.functional_check (Bintuner.Session.check s)
           check_bench ~baseline baseline))

(* A run that traps raises on every call: the error is never cached. *)
let test_functional_check_trap_not_cached () =
  with_session (fun s ->
      let baseline = o0 check_bench in
      let trapping =
        { baseline with entry = Array.length baseline.Isa.Binary.functions }
      in
      for call = 1 to 2 do
        match
          Bintuner.Session.functional_check (Bintuner.Session.check s)
            check_bench ~baseline trapping
        with
        | _ -> Alcotest.failf "call %d: a trapping candidate must raise" call
        | exception Vm.Machine.Trap _ -> ()
      done;
      (* the reference is computed once and hit once; the verdict misses
         on both calls, so the first call's trap left nothing behind *)
      Alcotest.(check (list (pair string int)))
        "only the O0 reference is cached"
        [ ("check.hit", 1); ("check.miss", 3); ("check.evict", 0) ]
        (check_traffic s))

(* The session's BinHunt score is [Binhunt.diff_score], and a repeat of
   the same pair is one cache hit. *)
let test_diff_score_cached () =
  with_session (fun s ->
      let baseline = o0 check_bench in
      let o2 =
        Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
          (Corpus.program check_bench)
      in
      let score () =
        Bintuner.Session.diff_score (Bintuner.Session.check s) ~baseline o2
      in
      Alcotest.(check (float 0.0)) "first call = Binhunt.diff_score"
        (Diffing.Binhunt.diff_score o2 baseline) (score ());
      Alcotest.(check (list (pair string int)))
        "one miss" [ ("check.hit", 0); ("check.miss", 1); ("check.evict", 0) ]
        (check_traffic s);
      Alcotest.(check (float 0.0)) "repeat call = Binhunt.diff_score"
        (Diffing.Binhunt.diff_score o2 baseline) (score ());
      Alcotest.(check (list (pair string int)))
        "then one hit" [ ("check.hit", 1); ("check.miss", 1); ("check.evict", 0) ]
        (check_traffic s))

(* A session measures at the level it was created at and refuses any
   other, so one session never mixes sizes from two match finders. *)
let test_sizecache_rejects_foreign_level () =
  with_session (fun s ->
      let own = Compress.Lz.default_level () in
      Alcotest.(check string) "the creation-time level"
        (Compress.Lz.level_name own)
        (Compress.Lz.level_name
           (Compress.Sizecache.level (Bintuner.Session.sizecache s own)));
      let foreign =
        match own with Compress.Lz.Greedy -> Compress.Lz.Chained 128 | _ -> Greedy
      in
      match Bintuner.Session.sizecache s foreign with
      | _ -> Alcotest.fail "a foreign level must be refused"
      | exception Invalid_argument _ -> ())

(* A session brings its own pool: [~pool] only seeds a throwaway
   session, so passing both is refused before any work. *)
let test_tune_refuses_pool_and_session () =
  with_session (fun session ->
      Parallel.Pool.with_pool 1 (fun pool ->
          match
            Bintuner.Tuner.tune ~pool ~session ~profile:Toolchain.Flags.gcc
              check_bench
          with
          | _ -> Alcotest.fail "~pool with ~session must be refused"
          | exception Invalid_argument _ -> ()))

(* On random valid flag vectors, the cached verdict (first and repeat
   call) equals the direct uncached check over every workload. *)
let prop_functional_check_matches_direct =
  let profile = Toolchain.Flags.gcc in
  let prog = Corpus.program check_bench in
  let baseline = lazy (o0 check_bench) in
  let session = lazy (Bintuner.Session.create ()) in
  QCheck.Test.make ~name:"cached functional verdict = direct check" ~count:12
    QCheck.small_nat (fun seed ->
      let baseline = Lazy.force baseline and s = Lazy.force session in
      let rng = Util.Rng.create ((seed * 7) + 3) in
      let vector =
        Toolchain.Constraints.repair profile rng
          (Array.init (Array.length profile.flags) (fun _ -> Util.Rng.bool rng))
      in
      let bin = Toolchain.Pipeline.compile_flags profile vector prog in
      let direct =
        List.for_all
          (fun input ->
            let r0 = Vm.Machine.run baseline ~input in
            let r = Vm.Machine.run bin ~input in
            r0.output = r.output && r0.return_value = r.return_value)
          check_bench.workloads
      in
      let cached () =
        Bintuner.Session.functional_check (Bintuner.Session.check s)
          check_bench ~baseline bin
      in
      cached () = direct && cached () = direct)

let test_fitness_properties () =
  let prog = Corpus.program (Corpus.find "429.mcf") in
  let gcc = Toolchain.Flags.gcc in
  let o0 = Toolchain.Pipeline.compile_preset gcc "O0" prog in
  let o3 = Toolchain.Pipeline.compile_preset gcc "O3" prog in
  Alcotest.(check bool) "self fitness small" true
    (Bintuner.Tuner.fitness_of_binaries o0 o0 < 0.15);
  Alcotest.(check bool) "cross fitness larger" true
    (Bintuner.Tuner.fitness_of_binaries o3 o0
    > Bintuner.Tuner.fitness_of_binaries o0 o0)

(* --- iteration database --- *)

let test_database_roundtrip () =
  let r = Lazy.force tuned in
  let run = Bintuner.Database.of_result r Toolchain.Flags.llvm in
  let path = Filename.temp_file "bintuner" ".db" in
  Bintuner.Database.save path [ run; run ];
  let loaded = Bintuner.Database.load path in
  Sys.remove path;
  Alcotest.(check int) "two runs" 2 (List.length loaded);
  let l = List.hd loaded in
  Alcotest.(check string) "benchmark" run.benchmark l.Bintuner.Database.benchmark;
  Alcotest.(check int) "entries survive" (List.length run.entries)
    (List.length l.entries);
  Alcotest.(check bool) "best survives" true (l.best = run.best)

let test_database_flag_frequency () =
  let r = Lazy.force tuned in
  let run = Bintuner.Database.of_result r Toolchain.Flags.llvm in
  let freqs = Bintuner.Database.flag_frequency run in
  Alcotest.(check int) "one entry per flag"
    (Array.length Toolchain.Flags.llvm.flags)
    (List.length freqs);
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "frequency in [0,1]" true (f >= 0.0 && f <= 1.0))
    freqs;
  (* frequencies are sorted descending *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted freqs)

let save_load runs =
  let path = Filename.temp_file "bintuner" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bintuner.Database.save path runs;
      Bintuner.Database.load path)

let test_database_escaped_names () =
  (* separator characters in names used to corrupt the line parse: a
     space split the "run" header into too many fields and a comma split
     one flag name into two *)
  let run =
    {
      Bintuner.Database.benchmark = "my bench, tuned (v2)";
      profile = "gcc 10.2";
      arch = "x86-64";
      flag_names = [ "-funroll loops"; "100% weird,name"; "plain" ];
      objectives = [ "ncd" ];
      entries = [ ([| true; false; true |], [| 0.25 |]) ];
      best = [| false; true; false |];
    }
  in
  match save_load [ run ] with
  | [ l ] ->
    Alcotest.(check string) "benchmark" run.benchmark l.Bintuner.Database.benchmark;
    Alcotest.(check string) "profile" run.profile l.profile;
    Alcotest.(check (list string)) "flag names" run.flag_names l.flag_names;
    Alcotest.(check bool) "entries" true (l.entries = run.entries);
    Alcotest.(check bool) "best" true (l.best = run.best)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 run, got %d" (List.length l))

let test_database_rejects_bad_lengths () =
  (* vectors whose length disagrees with the flag universe used to load
     silently and crash later consumers (lookup, flag_frequency) *)
  let run best entries =
    {
      Bintuner.Database.benchmark = "b";
      profile = "p";
      arch = "a";
      flag_names = [ "f1"; "f2" ];
      objectives = [ "ncd" ];
      entries;
      best;
    }
  in
  let expect_failure label runs =
    match save_load runs with
    | _ -> Alcotest.fail (label ^ ": expected a load failure")
    | exception Failure _ -> ()
  in
  expect_failure "short best"
    [ run [| true |] [ ([| true; false |], [| 0.1 |]) ] ];
  expect_failure "long entry"
    [ run [| true; false |] [ ([| true; false; true |], [| 0.1 |]) ] ]

let prop_database_roundtrip =
  (* arbitrary printable names (spaces, commas, percent signs, newlines)
     round-trip through the escaped text format *)
  let name_gen = QCheck.Gen.(string_size ~gen:printable (1 -- 10)) in
  QCheck.Test.make ~name:"database roundtrip with hostile names" ~count:100
    QCheck.(
      pair
        (make ~print:Print.(list string) Gen.(list_size (0 -- 5) name_gen))
        (make ~print:Print.string name_gen))
    (fun (flag_names, benchmark) ->
      let n = List.length flag_names in
      let vec seed = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let run =
        {
          Bintuner.Database.benchmark;
          profile = "p 1";
          arch = "a";
          flag_names;
          objectives = [ "ncd" ];
          entries = [ (vec 0, [| 0.5 |]); (vec 1, [| 0.75 |]) ];
          best = vec 1;
        }
      in
      match save_load [ run ] with
      | [ l ] ->
        l.Bintuner.Database.benchmark = benchmark
        && l.flag_names = flag_names
        && l.entries = run.entries
        && l.best = run.best
      | _ -> false)

(* A writer dying mid-save (injected via the test_write_failure hook)
   must leave the existing database byte-identical and no temp file
   behind — the crash-safety contract of the tmp+rename save. *)
let test_database_atomic_save () =
  let mkrun name =
    {
      Bintuner.Database.benchmark = name;
      profile = "p";
      arch = "a";
      flag_names = [ "f1"; "f2" ];
      objectives = [ "ncd" ];
      entries = [ ([| true; false |], [| 0.25 |]); ([| false; true |], [| 0.75 |]) ];
      best = [| true; false |];
    }
  in
  let path = Filename.temp_file "bintuner" ".db" in
  Fun.protect
    ~finally:(fun () ->
      Bintuner.Database.test_write_failure := None;
      Sys.remove path)
    (fun () ->
      Bintuner.Database.save path [ mkrun "good" ];
      let read_back () =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let before = read_back () in
      Bintuner.Database.test_write_failure := Some 3;
      (match Bintuner.Database.save path [ mkrun "good"; mkrun "doomed" ] with
      | () -> Alcotest.fail "expected the injected write failure to raise"
      | exception Failure _ -> ());
      Bintuner.Database.test_write_failure := None;
      Alcotest.(check string) "existing database untouched" before (read_back ());
      Alcotest.(check bool) "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp"));
      (* and it still parses *)
      Alcotest.(check int) "still loads" 1
        (List.length (Bintuner.Database.load path)))

(* Fitness round-trips bit-exactly through save/load: the old %.6f
   writer silently flattened every NCD to six decimals, so resumed runs
   compared "equal" fitnesses that were never equal. *)
let prop_database_fitness_lossless =
  let adversarial =
    [|
      1.0 /. 3.0;
      0.1;
      0.30000000000000004;
      Float.min_float;
      Float.max_float;
      4.9e-324 (* smallest denormal *);
      epsilon_float;
      1.0 +. epsilon_float;
      -1.0 /. 3.0;
      1e300;
    |]
  in
  QCheck.Test.make ~name:"database fitness serialization is lossless"
    ~count:200
    QCheck.(pair float small_nat)
    (fun (f, i) ->
      let fitness =
        if i mod 3 = 0 then adversarial.(i mod Array.length adversarial)
        else if Float.is_finite f then f
        else 0.5
      in
      let run =
        {
          Bintuner.Database.benchmark = "b";
          profile = "p";
          arch = "a";
          flag_names = [ "f" ];
          objectives = [ "ncd" ];
          entries = [ ([| true |], [| fitness |]) ];
          best = [| true |];
        }
      in
      match save_load [ run ] with
      | [ { Bintuner.Database.entries = [ (_, [| f' |]) ]; _ } ] ->
        Int64.bits_of_float f' = Int64.bits_of_float fitness
      | _ -> false)

(* Files written before the hex-float change carry %.6f decimals; the
   loader must keep accepting them. *)
let test_database_parses_legacy_decimals () =
  let path = Filename.temp_file "bintuner" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "run b p a\nflags f1,f2\nbest 10\ne 10 0.123456\ne 01 -0.000001\nend\n";
      close_out oc;
      match Bintuner.Database.load path with
      | [ { Bintuner.Database.objectives; entries = [ (_, [| a |]); (_, [| b |]) ]; _ } ]
        ->
        Alcotest.(check (list string)) "legacy objectives" [ "ncd" ] objectives;
        Alcotest.(check (float 0.0)) "decimal entry" 0.123456 a;
        Alcotest.(check (float 0.0)) "negative decimal entry" (-0.000001) b
      | _ -> Alcotest.fail "legacy file did not load as one two-entry run")

(* A legacy scalar file must also load under an explicit scalar-NCD
   request, and keep loading after a save — the migration path: old
   database in, vector database out, nothing lost. *)
let test_database_legacy_migration_roundtrip () =
  let path = Filename.temp_file "bintuner" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "run b p a\nflags f1,f2\nbest 10\ne 10 0.123456\ne 01 0.75\nend\n";
      close_out oc;
      let loaded = Bintuner.Database.load ~objectives:[ "ncd" ] path in
      Alcotest.(check int) "legacy file loads under scalar request" 1
        (List.length loaded);
      (* re-save: the file is upgraded to the vector format in place *)
      Bintuner.Database.save path loaded;
      let again = Bintuner.Database.load ~objectives:[ "ncd" ] path in
      Alcotest.(check bool) "migrated file round-trips" true
        (List.map
           (fun r ->
             (r.Bintuner.Database.objectives, r.entries, r.best))
           again
        = List.map
            (fun r ->
              (r.Bintuner.Database.objectives, r.entries, r.best))
            loaded))

(* Mixing fitness vectors of different meaning must be impossible: a
   run tuned for other axes is rejected by an ?objectives load, and a
   file whose entries disagree with its declared axes never loads. *)
let test_database_rejects_objective_mismatch () =
  let run =
    {
      Bintuner.Database.benchmark = "b";
      profile = "p";
      arch = "a";
      flag_names = [ "f1"; "f2" ];
      objectives = [ "ncd"; "gadgets" ];
      entries = [ ([| true; false |], [| 0.5; -3.0 |]) ];
      best = [| true; false |];
    }
  in
  let path = Filename.temp_file "bintuner" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bintuner.Database.save path [ run ];
      (* the matching request and the open request both succeed *)
      (match Bintuner.Database.load ~objectives:[ "ncd"; "gadgets" ] path with
      | [ l ] ->
        Alcotest.(check (list string))
          "2-axis objectives survive" run.objectives l.objectives;
        Alcotest.(check bool) "2-axis entries survive" true
          (l.entries = run.entries)
      | _ -> Alcotest.fail "2-axis run did not round-trip");
      (match Bintuner.Database.load ~objectives:[ "ncd" ] path with
      | _ -> Alcotest.fail "scalar request accepted a 2-axis run"
      | exception Failure m ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i =
            i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "error names both specs" true
          (contains m "ncd,gadgets" && contains m "objectives"));
      (* entries contradicting the declared axes: corrupt, never loads *)
      let oc = open_out path in
      output_string oc "run b p a\nflags f1,f2\nobj ncd,gadgets\nbest 10\ne 10 0.5\nend\n";
      close_out oc;
      match Bintuner.Database.load path with
      | _ -> Alcotest.fail "arity mismatch loaded"
      | exception Failure _ -> ())

(* --- multi-objective tuning end to end --- *)

let test_tuner_multi_objective () =
  let objectives = Search.Objective.parse "ncd,gadgets" in
  let r =
    Bintuner.Tuner.tune
      ~termination:
        { Search.max_evaluations = 40; plateau_window = 60; plateau_epsilon = 0.0035 }
      ~objectives ~profile:Toolchain.Flags.llvm
      (Corpus.find "462.libquantum")
  in
  Alcotest.(check (list string))
    "result carries the axis names" [ "ncd"; "gadgets" ] r.objectives;
  Alcotest.(check int) "best_scores arity" 2 (Array.length r.best_scores);
  List.iter
    (fun e ->
      Alcotest.(check int) "database entry arity" 2
        (Array.length e.Bintuner.Tuner.fitness))
    r.database;
  Alcotest.(check bool) "front is non-empty" true (r.front <> []);
  Alcotest.(check bool) "front is mutually non-dominated" true
    (Search.Pareto.is_non_dominated r.front);
  (* the best genome's vector is on the front, and the scalarized best
     equals the unit-weight sum of its axes *)
  Alcotest.(check bool) "best scores appear on the front" true
    (List.exists (fun (_, f) -> f = r.best_scores) r.front);
  Alcotest.(check (float 1e-9)) "best_ncd is the scalarization"
    (r.best_scores.(0) +. r.best_scores.(1))
    r.best_ncd;
  Alcotest.(check bool) "gadget axis is a negated census (<= 0)" true
    (r.best_scores.(1) <= 0.0);
  Alcotest.(check bool) "per-axis memos saw traffic" true
    (Bintuner.Tuner.counter r "objective.memo.hit"
     + Bintuner.Tuner.counter r "objective.memo.miss"
    > 0);
  Alcotest.(check bool) "tuned binary still functional" true r.functional_ok

let test_tuner_multi_objective_deterministic () =
  let objectives = Search.Objective.parse "ncd,size" in
  let run () =
    let r =
      Bintuner.Tuner.tune
        ~termination:
          { Search.max_evaluations = 30; plateau_window = 60; plateau_epsilon = 0.0035 }
        ~objectives ~profile:Toolchain.Flags.gcc
        (Corpus.find "429.mcf")
    in
    (Array.to_list r.best_vector, r.best_ncd, List.map snd r.front, r.iterations)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same front and best" true (a = b)

(* --- AV fleet --- *)

let goodware =
  lazy
    (List.map
       (fun n ->
         Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
           (Corpus.program (Corpus.find n)))
       [ "429.mcf"; "coreutils"; "620.omnetpp_s"; "openssl" ])

let test_av_detects_training_sample () =
  let prog = Corpus.program (Corpus.find "lightaidra") in
  let bin = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2" prog in
  let fleet = Av.Scanner.train ~goodware:(Lazy.force goodware) ~seed:3 bin in
  Alcotest.(check int) "all scanners flag the sample" Av.Scanner.fleet_size
    (Av.Scanner.detections fleet bin)

let test_av_benign_program_clean () =
  let mal = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
      (Corpus.program (Corpus.find "lightaidra"))
  in
  let fleet = Av.Scanner.train ~goodware:(Lazy.force goodware) ~seed:3 mal in
  let benign =
    Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
      (Corpus.program (Corpus.find "605.mcf_s"))
  in
  Alcotest.(check bool) "unrelated program mostly clean" true
    (Av.Scanner.detections fleet benign <= 8)

let test_av_o3_mostly_detected () =
  let prog = Corpus.program (Corpus.find "bashlife") in
  let o2 = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2" prog in
  let o3 = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O3" prog in
  let fleet = Av.Scanner.train ~goodware:(Lazy.force goodware) ~seed:3 o2 in
  let d = Av.Scanner.detections fleet o3 in
  Alcotest.(check bool) "O3 detection near default" true
    (d >= Av.Scanner.fleet_size * 2 / 3)

let test_av_data_signatures_survive () =
  let prog = Corpus.program (Corpus.find "mirai") in
  let o2 = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2" prog in
  let os = Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "Os" prog in
  let fleet = Av.Scanner.train ~goodware:(Lazy.force goodware) ~seed:3 o2 in
  let _, data, _ = Av.Scanner.detections_by_class fleet os in
  Alcotest.(check bool) "data scanners unaffected by recompilation" true
    (data >= 10)

(* --- provenance --- *)

let test_provenance_classifies_presets () =
  let gcc = Toolchain.Flags.gcc in
  (* at least two programs per label, so the rejection threshold reflects
     genuine in-class variance *)
  let training =
    List.concat_map
      (fun name ->
        let p = Corpus.program (Corpus.find name) in
        List.map
          (fun preset ->
            ( { Provenance.Classify.profile = "gcc-10.2"; preset },
              Toolchain.Pipeline.compile_preset gcc preset p ))
          Toolchain.Flags.preset_names)
      [ "coreutils"; "429.mcf"; "lightaidra" ]
  in
  let model = Provenance.Classify.train training in
  (* presets of a different program should classify to the right level *)
  let test_prog = Corpus.program (Corpus.find "openssl") in
  let hits =
    List.length
      (List.filter
         (fun preset ->
           let bin = Toolchain.Pipeline.compile_preset gcc preset test_prog in
           let lbl, _ = Provenance.Classify.classify model bin in
           lbl.preset = preset)
         [ "O0"; "O3" ])
  in
  Alcotest.(check bool) "O0/O3 recognized across programs" true (hits >= 1)

let test_provenance_feature_shape () =
  let bin =
    Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O2"
      (Corpus.program (Corpus.find "429.mcf"))
  in
  let f = Provenance.Classify.features bin in
  Alcotest.(check bool) "normalized features" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) f)

let tests =
  [
    Alcotest.test_case "ga onemax" `Quick test_ga_onemax;
    Alcotest.test_case "ga repair" `Quick test_ga_respects_repair;
    Alcotest.test_case "ga deterministic" `Quick test_ga_deterministic;
    Alcotest.test_case "ga history monotone" `Quick test_ga_history_monotone;
    Alcotest.test_case "ga keeps all seeds" `Quick test_ga_keeps_all_seeds;
    Alcotest.test_case "tuner beats presets" `Slow test_tuner_beats_presets_on_fitness;
    Alcotest.test_case "tuner functional" `Slow test_tuner_functional;
    Alcotest.test_case "tuner database" `Slow test_tuner_database;
    Alcotest.test_case "tuner vector valid" `Slow test_tuner_vector_valid;
    Alcotest.test_case "tuner counters" `Slow test_tuner_counters;
    Alcotest.test_case "functional check wrong candidate" `Quick
      test_functional_check_wrong_candidate;
    Alcotest.test_case "functional check trap not cached" `Quick
      test_functional_check_trap_not_cached;
    Alcotest.test_case "diff score cached" `Quick test_diff_score_cached;
    Alcotest.test_case "sizecache rejects foreign level" `Quick
      test_sizecache_rejects_foreign_level;
    Alcotest.test_case "tune refuses pool and session" `Quick
      test_tune_refuses_pool_and_session;
    QCheck_alcotest.to_alcotest prop_functional_check_matches_direct;
    Alcotest.test_case "fitness properties" `Quick test_fitness_properties;
    Alcotest.test_case "database roundtrip" `Slow test_database_roundtrip;
    Alcotest.test_case "database frequency" `Slow test_database_flag_frequency;
    Alcotest.test_case "database escaped names" `Quick test_database_escaped_names;
    Alcotest.test_case "database length checks" `Quick
      test_database_rejects_bad_lengths;
    QCheck_alcotest.to_alcotest prop_database_roundtrip;
    Alcotest.test_case "database atomic save" `Quick test_database_atomic_save;
    QCheck_alcotest.to_alcotest prop_database_fitness_lossless;
    Alcotest.test_case "database legacy migration" `Quick
      test_database_legacy_migration_roundtrip;
    Alcotest.test_case "database objective mismatch" `Quick
      test_database_rejects_objective_mismatch;
    Alcotest.test_case "tuner multi-objective" `Slow test_tuner_multi_objective;
    Alcotest.test_case "tuner multi-objective deterministic" `Slow
      test_tuner_multi_objective_deterministic;
    Alcotest.test_case "database legacy decimals" `Quick
      test_database_parses_legacy_decimals;
    Alcotest.test_case "av training sample" `Quick test_av_detects_training_sample;
    Alcotest.test_case "av benign clean" `Quick test_av_benign_program_clean;
    Alcotest.test_case "av O3 detected" `Quick test_av_o3_mostly_detected;
    Alcotest.test_case "av data signatures" `Quick test_av_data_signatures_survive;
    Alcotest.test_case "provenance presets" `Quick test_provenance_classifies_presets;
    Alcotest.test_case "provenance features" `Quick test_provenance_feature_shape;
  ]
