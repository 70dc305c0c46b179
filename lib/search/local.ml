(* Local search strategies: steepest-ascent hill climbing and simulated
   annealing, both batched.

   The pre-refactor versions (lib/ga/strategies.ml) were sequential —
   one fitness call at a time, their own eval counters, first seed only.
   Rewritten as ask/tell batches they flow through the same
   batch_fitness → Parallel.Pool → Compress.Sizecache path as the GA,
   inherit plateau termination, and honour the never-discard-seeds
   invariant: the first batch of each is every repaired -Ox preset. *)

(* Steepest-ascent hill climbing with random restarts.  Each ask after
   the seed batch is the full single-bit-flip neighbourhood of the
   current point (one parallel batch); if no neighbour strictly
   improves, restart from a random repaired genome. *)
let hill_climb () : Strategy.t =
  (module struct
    let name = "hill"

    type phase = Start | Climbing | Restarting

    type state = {
      problem : Strategy.problem;
      mutable phase : phase;
      mutable current : bool array;
      mutable current_fitness : float;
    }

    let init ~rng:_ ~problem ~termination:_ =
      { problem; phase = Start; current = [||]; current_fitness = neg_infinity }

    let neighbourhood st =
      let repair = st.problem.Strategy.repair in
      Array.init st.problem.Strategy.ngenes (fun i ->
          let n = Array.copy st.current in
          n.(i) <- not n.(i);
          repair n)

    let fresh st ~rng =
      st.problem.Strategy.repair
        (Strategy.random_genome rng st.problem.Strategy.ngenes)

    let ask st ~rng =
      match st.phase with
      | Start ->
        let target = max 1 (List.length st.problem.Strategy.seeds) in
        Strategy.seed_batch ~rng ~problem:st.problem ~target
      | Climbing ->
        (* the whole seed batch can come back unscored at zero budget:
           nothing to climb from, fall back to a random point *)
        if st.current = [||] then [| fresh st ~rng |] else neighbourhood st
      | Restarting -> [| fresh st ~rng |]

    let tell st ~rng:_ ~genomes ~scores =
      (* adopt the best strictly-improving genome of the batch; climbing
         with no improvement means a local optimum — restart *)
      let improved = ref false in
      Array.iteri
        (fun i s ->
          match s with
          | Some sc
            when sc.Strategy.scalar > st.current_fitness
                 || (st.phase = Start && st.current = [||]) ->
            (* the seed-batch guard adopts *some* point even on a
               degenerate all-equal landscape so climbing can start *)
            st.current <- Array.copy genomes.(i);
            st.current_fitness <- sc.Strategy.scalar;
            improved := true
          | _ -> ())
        scores;
      st.phase <-
        (match st.phase with
        | Start | Restarting -> Climbing
        | Climbing -> if !improved then Climbing else Restarting)
  end)

(* Simulated annealing over a geometric temperature schedule.  Each ask
   after the seed batch is [batch] independent proposals from the
   current point (1–2 bit flips each); tell replays the Metropolis
   acceptance sequentially over the batch in proposal order, with the
   temperature driven by evaluation progress against the budget. *)
let anneal () : Strategy.t =
  let batch = 8 and t0 = 0.08 and t_end = 0.002 in
  (module struct
    let name = "anneal"

    type state = {
      problem : Strategy.problem;
      mutable started : bool;
      mutable current : bool array;
      mutable current_fitness : float;
      mutable told : int;  (** scored genomes seen, drives the schedule *)
      max_evaluations : int;
    }

    let init ~rng:_ ~problem ~termination =
      {
        problem;
        started = false;
        current = [||];
        current_fitness = neg_infinity;
        told = 0;
        max_evaluations = termination.Strategy.max_evaluations;
      }

    let propose st ~rng =
      let g = Array.copy st.current in
      let flips = 1 + Util.Rng.int rng 2 in
      for _ = 1 to flips do
        let i = Util.Rng.int rng st.problem.Strategy.ngenes in
        g.(i) <- not g.(i)
      done;
      st.problem.Strategy.repair g

    let ask st ~rng =
      if not st.started then begin
        st.started <- true;
        let target = max 1 (List.length st.problem.Strategy.seeds) in
        Strategy.seed_batch ~rng ~problem:st.problem ~target
      end
      else if st.current = [||] then
        (* every seed came back unscored (zero budget) — keep the chain
           alive with a fresh random point *)
        [|
          st.problem.Strategy.repair
            (Strategy.random_genome rng st.problem.Strategy.ngenes);
        |]
      else Array.init batch (fun _ -> propose st ~rng)

    let temperature st =
      let progress =
        if st.max_evaluations <= 0 then 1.0
        else
          min 1.0 (float_of_int st.told /. float_of_int st.max_evaluations)
      in
      t0 *. ((t_end /. t0) ** progress)

    let tell st ~rng ~genomes ~scores =
      Array.iteri
        (fun i s ->
          match s with
          | None -> ()
          | Some sc ->
            let f = sc.Strategy.scalar in
            st.told <- st.told + 1;
            let accept =
              st.current = [||]
              || f >= st.current_fitness
              ||
              let temp = temperature st in
              let delta = f -. st.current_fitness in
              Util.Rng.float rng 1.0 < exp (delta /. temp)
            in
            if accept then begin
              st.current <- Array.copy genomes.(i);
              st.current_fitness <- f
            end)
        scores
  end)
