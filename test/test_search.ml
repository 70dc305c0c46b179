(* The strategy-contract harness: every registered strategy (ga, hill,
   anneal, random, ensemble) must honour the Search engine's contract —
   budget, repair, best/history bookkeeping, seeds-up-front, plateau
   termination, and determinism (including through a parallel batch
   hook) — plus the frozen-GA differential locking the GA port
   bit-for-bit to the pre-refactor engine. *)

let strategies () = List.map (fun n -> (n, Search.of_name n)) Search.all_names

let onemax g =
  float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 g)

let no_plateau budget =
  (* window past the budget: the engine can only stop on the budget *)
  { Search.max_evaluations = budget;
    plateau_window = (2 * budget) + 10;
    plateau_epsilon = 0.0 }

let run_strategy ?batch_fitness ~seed ~ngenes ~budget ~seeds ~repair ~fitness
    strategy =
  let rng = Util.Rng.create seed in
  let batch_fitness =
    Option.map (fun f gs -> Array.map (fun x -> [| x |]) (f gs)) batch_fitness
  in
  Search.run ?batch_fitness ~rng ~termination:(no_plateau budget)
    ~problem:{ Search.ngenes; seeds; repair }
    ~fitness:(fun g -> [| fitness g |])
    strategy

(* (a) the evaluation budget is never exceeded, and [evaluations]
   reports exactly the number of fitness calls *)
let prop_budget =
  QCheck.Test.make ~name:"every strategy respects the evaluation budget"
    ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (seed, b) ->
      let budget = 5 + (b mod 60) in
      List.for_all
        (fun (_, strategy) ->
          let calls = ref 0 in
          let fitness g =
            incr calls;
            float_of_int (Hashtbl.hash (Array.to_list g) mod 1000)
          in
          let o =
            run_strategy ~seed ~ngenes:12 ~budget ~seeds:[]
              ~repair:(fun g -> g) ~fitness strategy
          in
          o.Search.evaluations <= budget && !calls = o.Search.evaluations)
        (strategies ()))

(* (b) every genome a strategy proposes reaches the fitness already
   repair-fixed (the repair is idempotent, so fixed ⇔ repair g = g) *)
let prop_repair_fixed =
  QCheck.Test.make ~name:"every proposed genome is repair-fixed" ~count:20
    QCheck.small_nat
    (fun seed ->
      let repair g =
        g.(0) <- false;
        if g.(3) then g.(4) <- true;
        g
      in
      let fixed g =
        let c = repair (Array.copy g) in
        c = g
      in
      List.for_all
        (fun (_, strategy) ->
          let ok = ref true in
          let fitness g =
            if not (fixed g) then ok := false;
            onemax g
          in
          ignore
            (run_strategy ~seed ~ngenes:12 ~budget:50 ~seeds:[] ~repair
               ~fitness strategy);
          !ok)
        (strategies ()))

(* (c) best_fitness = max over history; history is monotone, one entry
   per evaluation *)
let prop_best_is_history_max =
  QCheck.Test.make ~name:"best_fitness is the history max" ~count:30
    QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun (_, strategy) ->
          let fitness g =
            float_of_int (Hashtbl.hash (seed, Array.to_list g) mod 1000)
          in
          let o =
            run_strategy ~seed ~ngenes:12 ~budget:60 ~seeds:[]
              ~repair:(fun g -> g) ~fitness strategy
          in
          let rec monotone = function
            | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
            | _ -> true
          in
          List.length o.Search.history = o.Search.evaluations
          && monotone o.Search.history
          && (o.Search.history = []
             || o.Search.best_fitness
                = List.fold_left (fun a (_, f) -> max a f) neg_infinity
                    o.Search.history)
          && abs_float (fitness o.Search.best -. o.Search.best_fitness) < 1e-9)
        (strategies ()))

(* (d) identical seed ⇒ identical outcome *)
let prop_deterministic =
  QCheck.Test.make ~name:"every strategy is deterministic in the seed"
    ~count:15 QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun (name, _) ->
          let fitness g =
            float_of_int (Hashtbl.hash (Array.to_list g) mod 1000)
          in
          let once () =
            run_strategy ~seed ~ngenes:14 ~budget:50 ~seeds:[]
              ~repair:(fun g -> g) ~fitness (Search.of_name name)
          in
          let a = once () and b = once () in
          a.Search.best = b.Search.best
          && a.Search.best_fitness = b.Search.best_fitness
          && a.Search.evaluations = b.Search.evaluations
          && a.Search.history = b.Search.history)
        (strategies ()))

(* (d, -j 2) the outcome is independent of the batch hook's parallelism *)
let test_deterministic_under_pool () =
  Parallel.Pool.with_pool 2 (fun pool ->
      List.iter
        (fun name ->
          let fitness g =
            float_of_int (Hashtbl.hash (Array.to_list g) mod 1000)
          in
          let run ?batch_fitness () =
            run_strategy ?batch_fitness ~seed:42 ~ngenes:16 ~budget:60
              ~seeds:[ Array.make 16 false; Array.make 16 true ]
              ~repair:(fun g -> g) ~fitness (Search.of_name name)
          in
          let seq = run () in
          let par =
            run ~batch_fitness:(fun gs -> Parallel.Pool.map pool fitness gs) ()
          in
          Alcotest.(check bool)
            (name ^ ": sequential = pooled")
            true
            (seq.Search.best = par.Search.best
            && seq.Search.best_fitness = par.Search.best_fitness
            && seq.Search.evaluations = par.Search.evaluations
            && seq.Search.history = par.Search.history))
        Search.all_names)

(* every strategy evaluates all seed vectors up front: the only
   high-fitness genome is the *last* seed, and the budget is too small
   for any strategy to rediscover it by search *)
let test_all_seeds_enter_every_strategy () =
  let ngenes = 48 in
  let magic = Array.init ngenes (fun i -> i mod 2 = 0) in
  let seeds =
    List.init 4 (fun k -> Array.init ngenes (fun i -> i = k)) @ [ Array.copy magic ]
  in
  List.iter
    (fun name ->
      let o =
        run_strategy ~seed:5 ~ngenes ~budget:8 ~seeds ~repair:(fun g -> g)
          ~fitness:(fun g -> if g = magic then 1000.0 else 0.0)
          (Search.of_name name)
      in
      Alcotest.(check (float 1e-9))
        (name ^ ": last seed evaluated")
        1000.0 o.Search.best_fitness;
      Alcotest.(check bool)
        (name ^ ": all five seeds scored")
        true
        (o.Search.evaluations >= 5))
    Search.all_names

(* the shared plateau window stops every strategy on a flat landscape
   long before the budget *)
let test_plateau_stops_every_strategy () =
  List.iter
    (fun name ->
      let rng = Util.Rng.create 3 in
      let o =
        Search.run ~rng
          ~termination:
            { Search.max_evaluations = 10_000;
              plateau_window = 32;
              plateau_epsilon = 0.0035 }
          ~problem:{ Search.ngenes = 12; seeds = []; repair = (fun g -> g) }
          ~fitness:(fun _ -> [| 1.0 |])
          (Search.of_name name)
      in
      Alcotest.(check bool)
        (name ^ ": plateau fires well before the budget")
        true
        (o.Search.evaluations >= 32 && o.Search.evaluations <= 500))
    Search.all_names

(* every strategy's proposals satisfy the real flag constraints when
   repaired by the real constraint solver *)
let test_strategies_respect_real_constraints () =
  let profile = Toolchain.Flags.gcc in
  let ngenes = Array.length profile.Toolchain.Flags.flags in
  List.iter
    (fun name ->
      let rng = Util.Rng.create 11 in
      let ok = ref true in
      let fitness g =
        if not (Toolchain.Constraints.valid profile g) then ok := false;
        onemax g
      in
      let seeds =
        List.filter_map
          (fun n -> Toolchain.Flags.preset profile n)
          [ "O1"; "O2"; "O3"; "Os" ]
      in
      ignore
        (Search.run ~rng ~termination:(no_plateau 40)
           ~problem:
             {
               Search.ngenes;
               seeds;
               repair = Toolchain.Constraints.repair profile rng;
             }
           ~fitness:(fun g -> [| fitness g |])
           (Search.of_name name));
      Alcotest.(check bool)
        (name ^ ": every evaluated genome satisfies the constraints")
        true !ok)
    Search.all_names

(* the guided strategies actually search: each must solve (or nearly
   solve) onemax within a 500-evaluation budget *)
let test_strategies_on_onemax () =
  let run name =
    (run_strategy ~seed:21 ~ngenes:16 ~budget:500 ~seeds:[]
       ~repair:(fun g -> g) ~fitness:onemax (Search.of_name name))
      .Search.best_fitness
  in
  Alcotest.(check bool) "ga solves onemax" true (run "ga" >= 15.0);
  Alcotest.(check bool) "hill climb solves onemax" true (run "hill" >= 15.0);
  Alcotest.(check bool) "anneal near optimum" true (run "anneal" >= 13.0);
  Alcotest.(check bool) "ensemble near optimum" true (run "ensemble" >= 14.0)

(* the ensemble spreads budget across its sub-strategies: with telemetry
   enabled, every sub gets picked at least once (the round-robin
   warm-up), and the picks sum to the generation count *)
let test_ensemble_allocates_across_subs () =
  let t = Telemetry.create () in
  Telemetry.set_global t;
  Fun.protect ~finally:(fun () -> Telemetry.set_global Telemetry.null)
  @@ fun () ->
  ignore
    (run_strategy ~seed:13 ~ngenes:14 ~budget:200 ~seeds:[]
       ~repair:(fun g -> g)
       ~fitness:(fun g ->
         float_of_int (Hashtbl.hash (Array.to_list g) mod 1000))
       (Search.of_name "ensemble"));
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        ("ensemble picked " ^ sub ^ " at least once")
        true
        (Telemetry.counter_value t ("search.ensemble.pick." ^ sub) >= 1))
    [ "ga"; "hill"; "anneal"; "random" ]

(* --- the frozen-GA differential: the port is bit-identical --- *)

let frozen_vs_search ~seed ~ngenes ~budget ~window ~epsilon ~seeds ~fitness
    ~rng_repair () =
  let termination =
    { Search.max_evaluations = budget;
      plateau_window = window;
      plateau_epsilon = epsilon }
  in
  let make_repair rng g =
    if rng_repair then begin
      (* consumes the shared rng stream, like Toolchain.Constraints.repair *)
      let i = Util.Rng.int rng ngenes in
      g.(i) <- false;
      g.(0) <- false;
      g
    end
    else begin
      g.(0) <- false;
      g
    end
  in
  let frozen =
    let rng = Util.Rng.create seed in
    Frozen_ga.run ~rng ~params:Frozen_ga.default_params
      ~termination:
        {
          Frozen_ga.max_evaluations = budget;
          plateau_window = window;
          plateau_epsilon = epsilon;
        }
      ~ngenes ~seeds ~repair:(make_repair rng) ~fitness ()
  in
  let ported =
    let rng = Util.Rng.create seed in
    Search.run ~rng ~termination
      ~problem:{ Search.ngenes; seeds; repair = make_repair rng }
      ~fitness:(fun g -> [| fitness g |])
      (Search.Genetic.strategy ())
  in
  frozen.Frozen_ga.best = ported.Search.best
  && frozen.Frozen_ga.best_fitness = ported.Search.best_fitness
  && frozen.Frozen_ga.evaluations = ported.Search.evaluations
  && frozen.Frozen_ga.history = ported.Search.history

let prop_ga_differential =
  QCheck.Test.make
    ~name:"ported GA is bit-identical to the frozen pre-refactor engine"
    ~count:40
    QCheck.(pair small_nat bool)
    (fun (seed, rng_repair) ->
      let ngenes = 10 + (seed mod 8) in
      let seeds =
        if seed mod 3 = 0 then []
        else
          [ Array.init ngenes (fun i -> i mod 2 = 0);
            Array.init ngenes (fun i -> i < 3) ]
      in
      frozen_vs_search ~seed ~ngenes
        ~budget:(30 + (seed mod 70))
        ~window:40 ~epsilon:0.0035 ~seeds
        ~fitness:(fun g ->
          float_of_int (Hashtbl.hash (seed, Array.to_list g) mod 1000)
          /. 100.0)
        ~rng_repair ())

let test_ga_differential_landscapes () =
  (* a few hand-picked regimes the random property may not hit: plateau
     landscapes, tiny budgets, seed-heavy populations *)
  List.iter
    (fun (label, seed, budget, window, epsilon, flat) ->
      let ngenes = 12 in
      let fitness =
        if flat then fun _ -> 1.0
        else fun g -> onemax g
      in
      Alcotest.(check bool) label true
        (frozen_vs_search ~seed ~ngenes ~budget ~window ~epsilon
           ~seeds:(List.init 6 (fun k -> Array.init ngenes (fun i -> i = k)))
           ~fitness ~rng_repair:true ()))
    [
      ("flat plateau", 1, 400, 32, 0.0035, true);
      ("tiny budget", 2, 4, 1000, 0.0, false);
      ("onemax long run", 3, 300, 60, 0.001, false);
    ]

(* --- the Pareto archive --- *)

(* deterministic pseudo-random (genome, fitness-vector) pools: the
   properties below need arbitrary insert sequences without threading a
   QCheck generator through arrays *)
let pareto_pool ~seed ~axes n =
  List.init n (fun i ->
      let h k = Hashtbl.hash (seed, i, k) in
      let genome = Array.init 8 (fun b -> (h (-1)) land (1 lsl b) <> 0) in
      let vec = Array.init axes (fun a -> float_of_int (h a mod 17) /. 4.0) in
      (genome, vec))

let prop_pareto_front_non_dominated =
  QCheck.Test.make
    ~name:"pareto archive: no front member dominates another" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (seed, n) ->
      let axes = 1 + (seed mod 3) in
      let t = Search.Pareto.create ~bound:8 () in
      List.iter
        (fun (g, v) -> ignore (Search.Pareto.insert t g v : bool))
        (pareto_pool ~seed ~axes (1 + (n mod 40)));
      let front = Search.Pareto.front t in
      Search.Pareto.is_non_dominated front
      && List.length front <= 8
      && List.length front >= 1)

let prop_pareto_order_insensitive =
  QCheck.Test.make
    ~name:"pareto archive: front independent of insert order (unpruned)"
    ~count:200 QCheck.small_nat
    (fun seed ->
      let pool = pareto_pool ~seed ~axes:2 30 in
      let build order =
        (* bound past the pool size: the crowding prune never fires, so
           the archive is exactly the non-dominated set of the inserts *)
        let t = Search.Pareto.create ~bound:100 () in
        List.iter (fun (g, v) -> ignore (Search.Pareto.insert t g v : bool)) order;
        List.map snd (Search.Pareto.front t)
      in
      build pool = build (List.rev pool))

let test_pareto_crowding_keeps_extremes () =
  (* an anti-correlated diagonal is all mutually non-dominated: pruning
     down to a tight bound must keep both per-axis extremes (crowding
     distance infinity), sacrificing only interior points *)
  let t = Search.Pareto.create ~bound:4 () in
  let n = 32 in
  for i = 0 to n - 1 do
    let g = Array.init 8 (fun b -> i land (1 lsl b) <> 0) in
    ignore
      (Search.Pareto.insert t g
         [| float_of_int i; float_of_int (n - 1 - i) |]
        : bool)
  done;
  let front = List.map snd (Search.Pareto.front t) in
  Alcotest.(check int) "pruned to the bound" 4 (List.length front);
  Alcotest.(check bool) "axis-0 extreme kept" true
    (List.exists (fun v -> v.(0) = float_of_int (n - 1)) front);
  Alcotest.(check bool) "axis-1 extreme kept" true
    (List.exists (fun v -> v.(1) = float_of_int (n - 1)) front)

let test_pareto_dominated_never_enters () =
  let t = Search.Pareto.create ~bound:8 () in
  let g i = Array.init 4 (fun b -> i land (1 lsl b) <> 0) in
  Alcotest.(check bool) "first point enters" true
    (Search.Pareto.insert t (g 1) [| 1.0; 1.0 |]);
  Alcotest.(check bool) "dominated point rejected" false
    (Search.Pareto.insert t (g 2) [| 0.5; 1.0 |]);
  Alcotest.(check bool) "duplicate vector rejected" false
    (Search.Pareto.insert t (g 3) [| 1.0; 1.0 |]);
  Alcotest.(check bool) "dominating point evicts" true
    (Search.Pareto.insert t (g 4) [| 2.0; 2.0 |]);
  Alcotest.(check int) "only the dominator remains" 1 (Search.Pareto.size t)

(* --- the vector engine's 1-objective path is the scalar engine --- *)

let test_vector_engine_matches_scalar_on_every_strategy () =
  (* same fitness exposed two ways: a singleton vector (the scalar
     path), and a 2-axis vector whose scalarization reads axis 0.  Every
     strategy must produce the identical trajectory — strategies rank on
     the scalarized score, and the archive consumes no randomness. *)
  List.iter
    (fun name ->
      let f g = float_of_int (Hashtbl.hash (Array.to_list g) mod 1000) /. 50.0 in
      let termination = no_plateau 80 in
      let problem = { Search.ngenes = 14; seeds = []; repair = (fun g -> g) } in
      let scalar =
        let rng = Util.Rng.create 31 in
        Search.run ~rng ~termination ~problem
          ~fitness:(fun g -> [| f g |])
          (Search.of_name name)
      in
      let vector =
        let rng = Util.Rng.create 31 in
        Search.run ~rng ~termination ~problem
          ~scalarize:(fun v -> v.(0))
          ~axes:[ "ncd"; "aux" ]
          ~fitness:(fun g -> [| f g; -.f g |])
          (Search.of_name name)
      in
      Alcotest.(check bool)
        (name ^ ": scalar trajectory = 1-axis-scalarized vector trajectory")
        true
        (scalar.Search.best = vector.Search.best
        && scalar.Search.best_fitness = vector.Search.best_fitness
        && scalar.Search.evaluations = vector.Search.evaluations
        && scalar.Search.history = vector.Search.history);
      Alcotest.(check bool)
        (name ^ ": vector run reports a non-dominated front")
        true
        (vector.Search.front <> []
        && Search.Pareto.is_non_dominated vector.Search.front))
    Search.all_names

(* --- plateau termination at non-positive fitness --- *)

let test_plateau_fires_on_negative_fitness () =
  (* regression: relative gain is meaningless at a non-positive
     incumbent.  A fitness crawling upward by 1e-9 per evaluation from
     -10 never plateaued under the old [best <= old_best] rule — the
     run always burned the whole budget.  The absolute-gain fallback
     must stop it at the first window check. *)
  let calls = ref 0 in
  let fitness _ =
    incr calls;
    -10.0 +. (1e-9 *. float_of_int !calls)
  in
  List.iter
    (fun name ->
      calls := 0;
      let rng = Util.Rng.create 17 in
      let o =
        Search.run ~rng
          ~termination:
            { Search.max_evaluations = 10_000;
              plateau_window = 32;
              plateau_epsilon = 0.0035 }
          ~problem:{ Search.ngenes = 10; seeds = []; repair = (fun g -> g) }
          ~fitness:(fun g -> [| fitness g |])
          (Search.of_name name)
      in
      Alcotest.(check bool)
        (name ^ ": plateau fires despite sub-epsilon negative crawl")
        true
        (o.Search.evaluations >= 32 && o.Search.evaluations <= 500))
    Search.all_names

(* --- the objective spec --- *)

let test_objective_parse_and_scalarize () =
  let spec = Search.Objective.parse "ncd,gadgets:0.5" in
  Alcotest.(check (list string))
    "axis names" [ "ncd"; "gadgets" ]
    (Search.Objective.names spec);
  Alcotest.(check string) "round-trip" "ncd,gadgets:0.5"
    (Search.Objective.to_string spec);
  let s = Search.Objective.scalarize spec in
  Alcotest.(check (float 1e-12)) "weighted sum" 0.8 (s [| 0.6; 0.4 |]);
  Alcotest.(check bool) "default is the scalar-NCD spec" true
    (Search.Objective.is_scalar_ncd Search.Objective.default);
  Alcotest.(check bool) "weighted ncd is not the scalar path" false
    (Search.Objective.is_scalar_ncd (Search.Objective.parse "ncd:2"));
  List.iter
    (fun bad ->
      match Search.Objective.parse bad with
      | _ -> Alcotest.fail ("parse accepted " ^ bad)
      | exception Invalid_argument _ -> ())
    [ ""; "ncd,ncd"; "bogus"; "ncd:-1"; "ncd:0"; "gadgets:" ]

let tests =
  [
    QCheck_alcotest.to_alcotest prop_budget;
    QCheck_alcotest.to_alcotest prop_repair_fixed;
    QCheck_alcotest.to_alcotest prop_best_is_history_max;
    QCheck_alcotest.to_alcotest prop_deterministic;
    Alcotest.test_case "deterministic under -j 2" `Quick
      test_deterministic_under_pool;
    Alcotest.test_case "all seeds enter every strategy" `Quick
      test_all_seeds_enter_every_strategy;
    Alcotest.test_case "plateau stops every strategy" `Quick
      test_plateau_stops_every_strategy;
    Alcotest.test_case "strategies respect real constraints" `Quick
      test_strategies_respect_real_constraints;
    Alcotest.test_case "strategies solve onemax" `Quick
      test_strategies_on_onemax;
    Alcotest.test_case "ensemble allocates across subs" `Quick
      test_ensemble_allocates_across_subs;
    QCheck_alcotest.to_alcotest prop_ga_differential;
    Alcotest.test_case "ga differential landscapes" `Quick
      test_ga_differential_landscapes;
    QCheck_alcotest.to_alcotest prop_pareto_front_non_dominated;
    QCheck_alcotest.to_alcotest prop_pareto_order_insensitive;
    Alcotest.test_case "pareto crowding keeps extremes" `Quick
      test_pareto_crowding_keeps_extremes;
    Alcotest.test_case "pareto domination rules" `Quick
      test_pareto_dominated_never_enters;
    Alcotest.test_case "vector engine matches scalar on every strategy" `Quick
      test_vector_engine_matches_scalar_on_every_strategy;
    Alcotest.test_case "plateau fires on negative fitness" `Quick
      test_plateau_fires_on_negative_fitness;
    Alcotest.test_case "objective parse and scalarize" `Quick
      test_objective_parse_and_scalarize;
  ]
