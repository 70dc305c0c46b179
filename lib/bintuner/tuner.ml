type entry = {
  vector : bool array;
  fitness : float array;  (** objective vector, spec order *)
}

type result = {
  benchmark : string;
  profile_name : string;
  strategy : string;
  arch : Isa.Insn.arch;
  objectives : string list;  (** axis names, vector order *)
  best_vector : bool array;
  best_binary : Isa.Binary.t;
  best_ncd : float;  (** scalarized best — exactly the NCD on the
                         default 1-objective spec *)
  best_scores : float array;  (** the best genome's raw objective vector *)
  front : (bool array * float array) list;
      (** Pareto front of (flag vector, objective vector); a singleton
          on 1-objective runs *)
  refined_vector : bool array;
  refined_binary : Isa.Binary.t;
  preset_ncd : (string * float) list;
  iterations : int;
  history : (int * float) list;
  wall_seconds : float;
  functional_ok : bool;
  counters : (string * int) list;
      (** per-call deltas of {!Session.counters}, then
          [objective.memo.hit] / [objective.memo.miss] *)
  database : entry list;
}

let counter r name =
  match List.assoc_opt name r.counters with
  | Some n -> n
  | None -> invalid_arg ("Tuner.counter: unknown counter " ^ name)

let ncd_of_binaries a b =
  Compress.Ncd.distance a.Isa.Binary.text b.Isa.Binary.text

let code_stream (bin : Isa.Binary.t) =
  let insns = Isa.Codec.decode_all bin.arch bin.text in
  let b = Buffer.create (List.length insns) in
  List.iter
    (fun (_, i) -> Buffer.add_char b (Char.chr (Diffing.Bcode.opcode_class i)))
    insns;
  Buffer.contents b

let fitness_of_binaries a b =
  Compress.Ncd.distance (code_stream a) (code_stream b)

let flags_enabled (p : Toolchain.Flags.profile) vector =
  let names = ref [] in
  Array.iteri
    (fun i on -> if on then names := p.Toolchain.Flags.flags.(i).name :: !names)
    vector;
  List.rev !names

let tune ?(arch = Isa.Insn.X86_64) ?(termination = Search.default_termination)
    ?(seed = 1) ?(strategy = Search.Genetic.strategy ()) ?pool ?session
    ?(incremental = true) ?(objectives = Search.Objective.default)
    ~(profile : Toolchain.Flags.profile) (bench : Corpus.benchmark) =
  let t0 = Unix.gettimeofday () in
  if objectives = [] then invalid_arg "Tuner.tune: empty objective spec";
  (* a one-shot call is a throwaway session: its caches (and its pool,
     unless the caller passed one) live exactly as long as the call *)
  let throwaway = Option.is_none session in
  let session =
    match (session, pool) with
    | None, _ -> Session.create ?pool ()
    | Some s, None -> s
    | Some _, Some _ -> invalid_arg "Tuner.tune: pass ~pool or ~session, not both"
  in
  (* search and final selection on the session; what is left, the
     functional check, comes back as a closure to run after the close *)
  let finish =
    Fun.protect ~finally:(fun () -> if throwaway then Session.close session)
    @@ fun () ->
  let pool = Session.pool session in
  (* shared caches carry traffic from earlier jobs; snapshot the counters
     before this call's first compile (the O0 baseline) so the result
     reports exactly this call's deltas *)
  let counters0 = Session.counters session in
  let rng = Util.Rng.create (seed + Hashtbl.hash (bench.Corpus.bname, profile.profile_name)) in
  let ast = Corpus.program bench in
  (* the pass-prefix snapshot store: every compile of this run — across
     all worker domains — reads and writes one LRU of post-step IR
     snapshots, so single-flag neighbours resume mid-pipeline instead of
     recompiling from source.  Lossless, hence safe to default on; a
     long-lived session shares it, so later jobs resume from prefixes
     earlier jobs produced. *)
  let snapshot =
    if incremental then
      Some (Incremental.snapshot_store (Session.incremental session))
    else None
  in
  let baseline = Toolchain.Pipeline.compile_preset profile ~arch ?snapshot "O0" ast in
  let baseline_stream = code_stream baseline in
  (* every C(x) / C(x·baseline) term of this run goes through one
     content-addressed cache, the session's: the baseline's
     solo size is compressed once, here, so the workers' shared term is a
     guaranteed hit instead of a race of misses, and candidates the
     search revisits hit instead of re-compressing.  With a persistent
     store attached to the session it is durable too. *)
  let ncd_cache = Session.sizecache session (Compress.Lz.default_level ()) in
  ignore (Compress.Sizecache.size ncd_cache baseline_stream : int);
  let ncd bin =
    let stream = code_stream bin in
    Telemetry.with_span "tuner.ncd" (fun () ->
        Compress.Ncd.distance_via ncd_cache stream baseline_stream)
  in
  let database = ref [] in
  let compile =
    Session.compile session
      ~program:(Digest.to_hex (Digest.string bench.Corpus.source))
      ~profile:profile.profile_name ~arch (fun vector ->
        Telemetry.with_span "tuner.compile" (fun () ->
            Toolchain.Pipeline.compile_flags profile ~arch ?snapshot vector ast))
  in
  (* The multi-objective evaluator: per-axis memoized evaluation over
     the compiled binary.  The [ncd] axis is the same [ncd] the default
     spec scores with; the [evasion] axis trains the provenance adversary
     on this profile's presets once, then scores each candidate by its
     distance to the nearest preset centroid (further = more evasive).
     The paper's original problem — one NCD axis at unit weight — needs
     no evaluator and scores [ncd] alone. *)
  let evaluator =
    if Search.Objective.is_scalar_ncd objectives then None
    else begin
      let evasion_hook =
        if
          not
            (List.exists (fun (a, _) -> a = Search.Objective.Evasion) objectives)
        then None
        else begin
          let labelled =
            List.map
              (fun name ->
                ( {
                    Provenance.Classify.profile = profile.profile_name;
                    preset = name;
                  },
                  Toolchain.Pipeline.compile_preset profile ~arch ?snapshot name
                    ast ))
              [ "O0"; "O1"; "O2"; "O3"; "Os" ]
          in
          let model =
            Telemetry.with_span "tuner.train_adversary" (fun () ->
                Provenance.Classify.train labelled)
          in
          Some (fun bin -> snd (Provenance.Classify.classify model bin))
        end
      in
      Some (Search.Objective.evaluator ~ncd ?evasion:evasion_hook objectives)
    end
  in
  let evaluate =
    match evaluator with
    | None -> fun bin -> [| ncd bin |]
    | Some ev -> Search.Objective.evaluate ev
  in
  (* One generation's worth of candidates at a time: compile + evaluation
     run in parallel across the pool (each candidate's objective vector
     is a pure function of its flag vector; the per-axis memos are
     mutex-guarded), then the iteration database is appended sequentially
     in input order — the scheduling of the batch can never leak into the
     result. *)
  let batch_fitness vectors =
    let vecs = Parallel.Pool.map pool (fun v -> evaluate (compile v)) vectors in
    Array.iteri
      (fun i v ->
        database := { vector = Array.copy v; fitness = vecs.(i) } :: !database)
      vectors;
    vecs
  in
  let fitness vector = (batch_fitness [| vector |]).(0) in
  let scalarize = Search.Objective.scalarize objectives in
  let axis_names = Search.Objective.names objectives in
  let seeds =
    List.filter_map
      (fun name -> Toolchain.Flags.preset profile name)
      [ "O1"; "O2"; "O3"; "Os" ]
  in
  let outcome =
    let problem =
      {
        Search.ngenes = Array.length profile.flags;
        seeds;
        repair = Toolchain.Constraints.repair profile rng;
      }
    in
    Search.run ~batch_fitness ~scalarize ~axes:axis_names ~rng ~termination
      ~problem ~fitness strategy
  in
  (* Final selection: the GA typically ends with a set of near-tied best
     fitness values ("multiple different versions that all reveal the
     best NCD score", §5.2).  Among the top candidates, pick the one the
     objective reference metric (BinHunt) rates as most different from
     the baseline — the paper's verification step, folded into the
     output choice. *)
  let top_candidates =
    let sorted =
      List.sort
        (fun a b -> compare (scalarize b.fitness) (scalarize a.fitness))
        !database
    in
    let seen = Hashtbl.create 16 in
    let dedup =
      List.filter
        (fun e ->
          let key = Array.to_list e.vector in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        sorted
    in
    let n = List.length dedup in
    (* the fitness optimum is a cluster of near-identical flag soups;
       stratify across the whole (fitness-sorted) database so the
       reference metric also sees structurally different near-optima,
       including the preset seeds *)
    let top = List.filteri (fun i _ -> i < 4) dedup in
    let stride = max 1 (n / 5) in
    let strata = List.filteri (fun i _ -> i mod stride = 0 && i >= 4) dedup in
    (* the -Ox seeds started the population; keep their (repaired)
       vectors in the verification set so a misaligned fitness never
       makes the final output regress below the presets it grew from *)
    let seed_entries =
      List.map
        (fun v ->
          { vector = Toolchain.Constraints.repair profile rng (Array.copy v);
            fitness = Array.make (Search.Objective.arity objectives) 0.0 })
        seeds
    in
    top @ List.filteri (fun i _ -> i < 4) strata @ seed_entries
  in
  let best_binary = compile outcome.best in
  let refined_vector, refined_binary =
    match top_candidates with
    | [] -> (outcome.best, best_binary)
    | cands ->
      (* BinHunt is two orders of magnitude dearer than the fitness
         (§4.2): score the verification set across the pool *)
      let diff_score = Session.diff_score (Session.check session) ~baseline in
      let scored =
        Parallel.Pool.map_list ~chunk_size:1 pool
          (fun e ->
            let bin = compile e.vector in
            (diff_score bin, e.vector, bin))
          cands
      in
      let best_score, v, b =
        List.fold_left
          (fun (bs, bv, bb) (s, v, b) ->
            if s > bs then (s, v, b) else (bs, bv, bb))
          (neg_infinity, outcome.best, best_binary)
          scored
      in
      ignore best_score;
      (v, b)
  in
  let preset_ncd =
    Parallel.Pool.map_list ~chunk_size:1 pool
      (fun name ->
        let bin = Toolchain.Pipeline.compile_preset profile ~arch ?snapshot name ast in
        (name, ncd bin))
      [ "O0"; "O1"; "O2"; "O3"; "Os" ]
  in
  let objective_counts =
    let hits, misses =
      match evaluator with
      | None -> (0, 0)
      | Some ev ->
        List.fold_left
          (fun (h, m) (_, h', m') -> (h + h', m + m'))
          (0, 0)
          (Search.Objective.memo_counts ev)
    in
    [ ("objective.memo.hit", hits); ("objective.memo.miss", misses) ]
  in
  let result =
    {
      benchmark = bench.bname;
      profile_name = profile.profile_name;
      strategy = Search.name strategy;
      arch;
      objectives = axis_names;
      best_vector = outcome.best;
      best_binary;
      refined_vector;
      refined_binary;
      best_ncd = outcome.best_fitness;
      best_scores = outcome.best_vector;
      front = outcome.front;
      preset_ncd;
      iterations = outcome.evaluations;
      history = outcome.history;
      wall_seconds = 0.0;
      functional_ok = false;
      counters = [];
      database = List.rev !database;
    }
  in
  let counters_at_close = Session.counters session in
  let check = Session.check session in
  let functional = Session.functional_check check bench ~baseline in
  (* The VM check runs once the call has let go of the session: this
     closure holds the final-selection cache but not the session, so the
     caches of a throwaway session (tens of MB of IR snapshots) are
     garbage by then rather than live through the check.  The counter
     deltas are taken after it, so they include its traffic. *)
  fun () ->
    let functional_ok =
      functional result.best_binary && functional result.refined_binary
    in
    let now = Session.check_counters check in
    let counters =
      List.map2
        (fun (name, n) (_, n0) ->
          let n = Option.value (List.assoc_opt name now) ~default:n in
          (name, n - n0))
        counters_at_close counters0
    in
    {
      result with
      functional_ok;
      counters = counters @ objective_counts;
      wall_seconds = Unix.gettimeofday () -. t0;
    }
  in
  finish ()
