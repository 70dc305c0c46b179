(* The shared ask/tell driver.

   Everything the pre-refactor GA kept private — the evaluation cache
   keyed by genome, budget truncation at batch granularity, best/history
   bookkeeping replayed sequentially in proposal order, the plateau
   window — lives here once, so every strategy gets the batched
   parallel/memoized evaluation path and the same termination semantics.

   Fitness is a vector (one component per {!Objective} axis); the engine
   scalarizes every vector once at record time and runs all bookkeeping
   — best, history, plateau — on the scalar, exactly as the float-only
   engine did.  A passive {!Pareto} archive collects every evaluated
   (genome, vector) pair; it consumes no randomness and feeds nothing
   back into the strategies, so the 1-objective special case (identity
   scalarization) is bit-identical to the pre-vector engine: with the GA
   strategy plugged in, [run] still replays [Ga.Genetic.run]'s tracker
   line for line (locked by the frozen-GA differential test and the
   table1 sentinel in tools/ci.sh). *)

type tracker = {
  cache : (string, Strategy.score) Hashtbl.t;
  mutable evals : int;
  mutable best : bool array;
  mutable best_fitness : float;
  mutable best_vector : float array;
  mutable history_rev : (int * float) list;
  (* best fitness as of [evals - plateau_window] evaluations ago *)
  mutable recent : (int * float) list;  (** (eval index, best at that point) *)
}

(* Termination of last resort: a strategy that keeps proposing only
   already-cached genomes consumes no budget, so neither the budget nor
   the plateau window (which counts evaluations) can fire.  After this
   many consecutive zero-evaluation generations the engine stops — far
   beyond anything a live search produces, but it turns a pathological
   strategy/landscape combination (e.g. an exhausted tiny genome space)
   into termination instead of a hang. *)
let stale_generation_limit = 10_000

let run ?batch_fitness ?(scalarize = fun (v : float array) -> v.(0))
    ?(axes = []) ~rng ~termination ~problem ~fitness strategy =
  let open Strategy in
  let (module S : STRATEGY) = strategy in
  let batch =
    match batch_fitness with
    | Some f -> f
    | None -> fun genomes -> Array.map fitness genomes
  in
  let archive = Pareto.create () in
  let pfx = "search." ^ S.name in
  let st =
    {
      cache = Hashtbl.create 256;
      evals = 0;
      best = Array.make problem.ngenes false;
      best_fitness = neg_infinity;
      best_vector = [||];
      history_rev = [];
      recent = [];
    }
  in
  let record genome vec =
    let scalar = scalarize vec in
    Hashtbl.replace st.cache (genome_key genome) { vec; scalar };
    st.evals <- st.evals + 1;
    if scalar > st.best_fitness then begin
      st.best_fitness <- scalar;
      st.best_vector <- Array.copy vec;
      st.best <- Array.copy genome
    end;
    ignore (Pareto.insert archive genome vec : bool);
    st.history_rev <- (st.evals, st.best_fitness) :: st.history_rev;
    st.recent <- (st.evals, st.best_fitness) :: st.recent
  in
  (* Score a whole batch at once: the distinct not-yet-evaluated genomes
     (first-occurrence order, truncated to the remaining budget) go to
     [batch] as one array — the parallel engine's unit of work — and the
     bookkeeping is then replayed sequentially in that same order, so
     best/history/evaluation counts never depend on how the batch was
     scheduled.  Returns how many evaluations the batch consumed. *)
  let evaluate_generation population scores =
    let seen = Hashtbl.create 16 in
    let pending = ref [] in
    Array.iter
      (fun g ->
        let key = genome_key g in
        if not (Hashtbl.mem st.cache key) && not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          pending := Array.copy g :: !pending
        end)
      population;
    let budget = max 0 (termination.max_evaluations - st.evals) in
    let pending = List.filteri (fun i _ -> i < budget) (List.rev !pending) in
    Telemetry.add_count ~by:(List.length pending) (pfx ^ ".evaluations");
    Telemetry.add_count
      ~by:(Array.length population - List.length pending)
      (pfx ^ ".cache_hits");
    if pending <> [] then begin
      let arr = Array.of_list pending in
      let fs = Telemetry.with_span (pfx ^ ".evaluate_batch") (fun () -> batch arr) in
      Array.iteri (fun i g -> record g fs.(i)) arr
    end;
    Array.iteri
      (fun i g -> scores.(i) <- Hashtbl.find_opt st.cache (genome_key g))
      population;
    List.length pending
  in
  let plateaued () =
    if st.evals < termination.plateau_window then false
    else begin
      (* drop entries older than the window *)
      let horizon = st.evals - termination.plateau_window in
      st.recent <- List.filter (fun (e, _) -> e >= horizon) st.recent;
      let oldest =
        List.fold_left
          (fun acc (e, f) ->
            match acc with
            | None -> Some (e, f)
            | Some (e', _) when e < e' -> Some (e, f)
            | Some _ -> acc)
          None st.recent
      in
      match oldest with
      | Some (_, old_best) when old_best > 0.0 ->
        let gain = (st.best_fitness -. old_best) /. old_best in
        Telemetry.set_gauge (pfx ^ ".plateau_gain") gain;
        gain < termination.plateau_epsilon
      | Some (_, old_best) ->
        (* At a zero or negative incumbent the relative gain is
           meaningless — division by zero, or a sign flip that makes
           every improvement look like a loss — so fall back to
           absolute gain: a window that fails to move the best by at
           least epsilon is a plateau.  (The old engine required
           [best <= old_best] here, so any infinitesimal improvement
           reset the window and a negative-fitness search could crawl
           forever; the positive branch above is untouched.) *)
        let gain = st.best_fitness -. old_best in
        Telemetry.set_gauge (pfx ^ ".plateau_gain") gain;
        gain < termination.plateau_epsilon
      | None -> false
    end
  in
  let state = S.init ~rng ~problem ~termination in
  let generation = ref 0 in
  let stale = ref 0 in
  let exhausted = ref false in
  let step () =
    Telemetry.with_span
      ~attrs:[ ("generation", string_of_int !generation) ]
      (pfx ^ ".generation")
      (fun () ->
        let population = S.ask state ~rng in
        if Array.length population = 0 then exhausted := true
        else begin
          let scores = Array.make (Array.length population) None in
          let fresh = evaluate_generation population scores in
          if fresh = 0 then incr stale else stale := 0;
          S.tell state ~rng ~genomes:population ~scores
        end);
    Telemetry.set_gauge (pfx ^ ".best_fitness") st.best_fitness;
    Telemetry.set_gauge (pfx ^ ".evaluations") (float_of_int st.evals);
    List.iteri
      (fun i ax ->
        if i < Array.length st.best_vector then
          Telemetry.set_gauge (pfx ^ ".best." ^ ax) st.best_vector.(i))
      axes;
    Telemetry.set_gauge "search.pareto.front_size"
      (float_of_int (Pareto.size archive))
  in
  let continue_ () =
    (not !exhausted)
    && !stale < stale_generation_limit
    && st.evals < termination.max_evaluations
    && not (plateaued ())
  in
  (* the seed batch is evaluated unconditionally (it carries the -Ox
     presets); budget and plateau gate every batch after it *)
  step ();
  while continue_ () do
    incr generation;
    step ()
  done;
  {
    best = st.best;
    best_fitness = st.best_fitness;
    best_vector = st.best_vector;
    evaluations = st.evals;
    history = List.rev st.history_rev;
    front = Pareto.front archive;
  }
