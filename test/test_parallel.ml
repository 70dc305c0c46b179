(* The differential test layer for the parallel evaluation engine.

   Two kinds of guarantees are locked down here:

   1. [Parallel.Pool] mechanics: ordering, empty input, exception
      propagation, nested-map re-entrancy.

   2. The engine-level determinism contract: for real corpus benchmarks
      under both compiler profiles, [Tuner.tune ~j:1] and
      [Tuner.tune ~j:4] must produce bit-identical [best_vector],
      [best_ncd], [iterations], [history] — and in fact identical
      iteration databases and memo counters.  This is the property that
      makes the parallel engine safe to use for every paper artifact. *)

(* --- Pool unit tests --- *)

let test_pool_map_ordering () =
  Parallel.Pool.with_pool 4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let expected = Array.map (fun i -> i * i) xs in
      List.iter
        (fun chunk_size ->
          Alcotest.(check (array int))
            (Printf.sprintf "squares, chunk_size %d" chunk_size)
            expected
            (Parallel.Pool.map ~chunk_size pool (fun i -> i * i) xs))
        [ 1; 3; 25; 100; 1000 ];
      Alcotest.(check (array int))
        "squares, default chunking" expected
        (Parallel.Pool.map pool (fun i -> i * i) xs))

let test_pool_empty_and_singleton () =
  Parallel.Pool.with_pool 3 (fun pool ->
      Alcotest.(check (array int))
        "empty input" [||]
        (Parallel.Pool.map pool (fun i -> i + 1) [||]);
      Alcotest.(check (list int))
        "singleton list" [ 42 ]
        (Parallel.Pool.map_list pool (fun i -> i * 2) [ 21 ]))

exception Boom of int

let test_pool_exception_propagation () =
  Parallel.Pool.with_pool 4 (fun pool ->
      (* several elements fail; the lowest failing *index* must win,
         whatever the workers' timing *)
      let xs = Array.init 40 (fun i -> i) in
      let attempt () =
        ignore
          (Parallel.Pool.map ~chunk_size:1 pool
             (fun i -> if i >= 7 then raise (Boom i) else i)
             xs)
      in
      Alcotest.check_raises "lowest failing index wins" (Boom 7) attempt;
      (* the pool survives a failed batch *)
      Alcotest.(check (array int))
        "pool usable after failure"
        (Array.map (fun i -> i + 1) xs)
        (Parallel.Pool.map pool (fun i -> i + 1) xs))

let test_pool_nested_map_inlines () =
  Parallel.Pool.with_pool 4 (fun pool ->
      (* a map called from inside a worker must not deadlock: it runs
         inline and still returns ordered results *)
      let result =
        Parallel.Pool.map ~chunk_size:1 pool
          (fun base ->
            Array.fold_left ( + ) 0
              (Parallel.Pool.map pool (fun i -> (base * 10) + i)
                 (Array.init 5 (fun i -> i))))
          (Array.init 6 (fun i -> i))
      in
      Alcotest.(check (array int))
        "nested sums"
        (Array.init 6 (fun base -> (base * 50) + 10))
        result)

let test_pool_sequential_degenerate () =
  (* size-1 pools and shutdown pools run inline with the same results *)
  let xs = Array.init 30 (fun i -> i) in
  let p1 = Parallel.Pool.create 1 in
  Alcotest.(check int) "size reported" 1 (Parallel.Pool.size p1);
  Alcotest.(check (array int))
    "inline pool" (Array.map succ xs)
    (Parallel.Pool.map p1 succ xs);
  Parallel.Pool.shutdown p1;
  let p4 = Parallel.Pool.create 4 in
  Parallel.Pool.shutdown p4;
  Parallel.Pool.shutdown p4 (* idempotent *);
  Alcotest.(check (array int))
    "shutdown pool runs inline" (Array.map succ xs)
    (Parallel.Pool.map p4 succ xs)

let test_pool_submitter_helps () =
  (* A size-2 pool spawns exactly one worker domain.  Two chunks that
     rendezvous on an atomic can only both make progress if the
     submitting domain helps drain the queue instead of blocking on the
     batch latch: the regression this pins down had the submitter parked
     in [latch_wait] while the lone worker ran the chunks one at a time,
     so the first chunk's spin-wait below never completed. *)
  Parallel.Pool.with_pool 2 (fun pool ->
      let started = Atomic.make 0 in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let results =
        Parallel.Pool.map ~chunk_size:1 pool
          (fun i ->
            Atomic.incr started;
            let rec wait () =
              if Atomic.get started >= 2 then true
              else if Unix.gettimeofday () > deadline then false
              else begin
                Domain.cpu_relax ();
                wait ()
              end
            in
            (i, wait ()))
          [| 0; 1 |]
      in
      Alcotest.(check (array (pair int bool)))
        "both chunks ran concurrently"
        [| (0, true); (1, true) |]
        results)

let test_pool_live_domain_accounting () =
  let before = Parallel.Pool.live_domains () in
  let p = Parallel.Pool.create 4 in
  Alcotest.(check int)
    "create 4 spawns 3 workers" (before + 3)
    (Parallel.Pool.live_domains ());
  Parallel.Pool.shutdown p;
  Alcotest.(check int)
    "shutdown joins them" before
    (Parallel.Pool.live_domains ());
  Parallel.Pool.shutdown p;
  Alcotest.(check int)
    "idempotent shutdown leaves the count alone" before
    (Parallel.Pool.live_domains ());
  let inline = Parallel.Pool.create 1 in
  Alcotest.(check int)
    "size-1 pools spawn nothing" before
    (Parallel.Pool.live_domains ());
  Parallel.Pool.shutdown inline

let test_poolless_tune_leaks_no_domains () =
  (* regression: a pool-less [Tuner.tune] used to create its internal
     pool and never shut it down, so repeated calls accumulated
     unjoined resources *)
  let before = Parallel.Pool.live_domains () in
  let term =
    { Search.max_evaluations = 6; plateau_window = 1000; plateau_epsilon = 0.0 }
  in
  for _ = 1 to 3 do
    ignore
      (Bintuner.Tuner.tune ~termination:term ~profile:Toolchain.Flags.llvm
         (Corpus.find "462.libquantum")
        : Bintuner.Tuner.result)
  done;
  Alcotest.(check int)
    "repeated pool-less tune calls leave no live domains" before
    (Parallel.Pool.live_domains ())

(* --- the determinism differential --- *)

let diff_term =
  { Search.max_evaluations = 60; plateau_window = 40; plateau_epsilon = 0.0035 }

let entry_list r =
  List.map
    (fun e ->
      (Array.to_list e.Bintuner.Tuner.vector, Array.to_list e.Bintuner.Tuner.fitness))
    r.Bintuner.Tuner.database

let check_tune_equal label (a : Bintuner.Tuner.result)
    (b : Bintuner.Tuner.result) =
  Alcotest.(check (list bool))
    (label ^ ": best_vector") (Array.to_list a.best_vector)
    (Array.to_list b.best_vector);
  Alcotest.(check (float 0.0))
    (label ^ ": best_ncd") a.best_ncd b.best_ncd;
  Alcotest.(check int) (label ^ ": iterations") a.iterations b.iterations;
  Alcotest.(check (list (pair int (float 0.0))))
    (label ^ ": history") a.history b.history;
  Alcotest.(check (list bool))
    (label ^ ": refined_vector")
    (Array.to_list a.refined_vector)
    (Array.to_list b.refined_vector);
  Alcotest.(check bool)
    (label ^ ": database") true
    (entry_list a = entry_list b);
  Alcotest.(check (pair int int))
    (label ^ ": memo counters")
    (Bintuner.Tuner.counter a "memo.hit", Bintuner.Tuner.counter a "memo.miss")
    (Bintuner.Tuner.counter b "memo.hit", Bintuner.Tuner.counter b "memo.miss")

let diff_cases =
  [
    ("462.libquantum", Toolchain.Flags.llvm);
    ("462.libquantum", Toolchain.Flags.gcc);
    ("429.mcf", Toolchain.Flags.llvm);
    ("429.mcf", Toolchain.Flags.gcc);
    ("coreutils", Toolchain.Flags.llvm);
    ("coreutils", Toolchain.Flags.gcc);
  ]

let test_tune_j_independent () =
  Parallel.Pool.with_pool 4 (fun pool4 ->
      List.iter
        (fun (name, profile) ->
          let bench = Corpus.find name in
          let r1 =
            Bintuner.Tuner.tune ~termination:diff_term ~profile bench
          in
          let r4 =
            Bintuner.Tuner.tune ~termination:diff_term ~pool:pool4 ~profile
              bench
          in
          check_tune_equal
            (name ^ "/" ^ profile.Toolchain.Flags.profile_name)
            r1 r4)
        diff_cases)

let test_tune_fanout_j_independent () =
  (* whole tune jobs fanned out across the pool (the bench drivers' -j
     path) must equal the same jobs run sequentially *)
  let jobs =
    [ ("462.libquantum", Toolchain.Flags.llvm); ("429.mcf", Toolchain.Flags.gcc) ]
  in
  let run pool =
    Parallel.Pool.map_list ~chunk_size:1 pool
      (fun (name, profile) ->
        Bintuner.Tuner.tune ~termination:diff_term ~pool ~profile
          (Corpus.find name))
      jobs
  in
  let seq = Parallel.Pool.with_pool 1 run in
  let par = Parallel.Pool.with_pool 4 run in
  List.iter2
    (fun (a : Bintuner.Tuner.result) b ->
      check_tune_equal ("fanout " ^ a.benchmark) a b)
    seq par

let tests =
  [
    Alcotest.test_case "pool map ordering" `Quick test_pool_map_ordering;
    Alcotest.test_case "pool empty/singleton" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool exceptions" `Quick test_pool_exception_propagation;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested_map_inlines;
    Alcotest.test_case "pool degenerate" `Quick test_pool_sequential_degenerate;
    Alcotest.test_case "pool submitter helps" `Quick test_pool_submitter_helps;
    Alcotest.test_case "pool live-domain accounting" `Quick
      test_pool_live_domain_accounting;
    Alcotest.test_case "pool-less tune leaks no domains" `Slow
      test_poolless_tune_leaks_no_domains;
    Alcotest.test_case "tune j-independent" `Slow test_tune_j_independent;
    Alcotest.test_case "tune fan-out j-independent" `Slow
      test_tune_fanout_j_independent;
  ]
