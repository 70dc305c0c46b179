(* OpenTuner-style AUC-bandit ensemble (BinTuner's host harness,
   paper §3.2).

   The ensemble instantiates one private sub-state per sub-strategy and,
   each generation, hands the whole batch to one of them.  The pick is a
   sliding-window area-under-curve bandit: a sub earns credit every time
   a batch it proposed improved the global best, weighted towards recent
   history (position-weighted within the window, the AUC shape OpenTuner
   uses), plus a UCB exploration bonus so cold arms keep getting
   sampled.  Subs never see each other's batches — they only compete for
   the evaluation budget. *)

(* A sub-strategy's [state] type is abstract, so an arm wraps it in
   closures at [init] time. *)
type arm = {
  arm_name : string;
  arm_ask : rng:Util.Rng.t -> bool array array;
  arm_tell :
    rng:Util.Rng.t ->
    genomes:bool array array ->
    scores:Strategy.score option array ->
    unit;
  mutable uses : int;
}

let make_arm (module S : Strategy.STRATEGY) ~rng ~problem ~termination =
  let state = S.init ~rng ~problem ~termination in
  {
    arm_name = S.name;
    arm_ask = (fun ~rng -> S.ask state ~rng);
    arm_tell = (fun ~rng ~genomes ~scores -> S.tell state ~rng ~genomes ~scores);
    uses = 0;
  }

let strategy () : Strategy.t =
  let window = 50 and exploration = 0.5 in
  (module struct
    let name = "ensemble"

    type state = {
      arms : arm array;
      (* (arm index, improved-global-best?) per batch, newest first,
         truncated to [window] *)
      mutable results : (int * bool) list;
      mutable last : int;  (** arm the pending batch came from *)
      mutable best_fitness : float;
      mutable round_robin : int;  (** arms still owed a first pick *)
    }

    let init ~rng ~problem ~termination =
      let arms =
        Array.map
          (fun s -> make_arm s ~rng ~problem ~termination)
          [|
            Genetic.strategy ();
            Local.hill_climb ();
            Local.anneal ();
            Baseline.random ();
          |]
      in
      {
        arms;
        results = [];
        last = 0;
        best_fitness = neg_infinity;
        round_robin = 0;
      }

    (* Sliding-window AUC credit: within the window an improvement in the
       most recent batch weighs [window], one about to fall out weighs 1.
       Score = normalized credit + UCB exploration term; an unused arm
       scores infinity so it is tried before any bandit math runs. *)
    let auc_score st i =
      if st.arms.(i).uses = 0 then infinity
      else begin
        let n = List.length st.results in
        let credit = ref 0.0 and weight = ref 0.0 in
        List.iteri
          (fun pos (arm, improved) ->
            if arm = i then begin
              let w = float_of_int (n - pos) in
              weight := !weight +. w;
              if improved then credit := !credit +. w
            end)
          st.results;
        let exploitation = if !weight > 0.0 then !credit /. !weight else 0.0 in
        exploitation
        +. exploration
           *. sqrt
                (2.0 *. log (float_of_int (max 1 n))
                /. float_of_int st.arms.(i).uses)
      end

    let pick st =
      if st.round_robin < Array.length st.arms then begin
        (* every arm gets one unconditional pick before the bandit runs *)
        let i = st.round_robin in
        st.round_robin <- st.round_robin + 1;
        i
      end
      else begin
        (* argmax, lowest index wins ties *)
        let best = ref 0 and best_score = ref (auc_score st 0) in
        for i = 1 to Array.length st.arms - 1 do
          let s = auc_score st i in
          if s > !best_score then begin
            best := i;
            best_score := s
          end
        done;
        !best
      end

    let rec ask_arm st ~rng ~tried i =
      if tried >= Array.length st.arms then [||]
      else begin
        let arm = st.arms.(i) in
        let batch = arm.arm_ask ~rng in
        if Array.length batch > 0 then begin
          st.last <- i;
          arm.uses <- arm.uses + 1;
          Telemetry.add_count ("search.ensemble.pick." ^ arm.arm_name);
          batch
        end
        else
          (* an exhausted sub yields its turn; only give up when every
             arm declines in the same round *)
          ask_arm st ~rng ~tried:(tried + 1) ((i + 1) mod Array.length st.arms)
      end

    let ask st ~rng = ask_arm st ~rng ~tried:0 (pick st)

    let tell st ~rng ~genomes ~scores =
      let improved = ref false in
      Array.iter
        (fun s ->
          match s with
          | Some sc when sc.Strategy.scalar > st.best_fitness ->
            st.best_fitness <- sc.Strategy.scalar;
            improved := true
          | _ -> ())
        scores;
      st.results <- (st.last, !improved) :: st.results;
      if List.length st.results > window then
        st.results <- List.filteri (fun i _ -> i < window) st.results;
      st.arms.(st.last).arm_tell ~rng ~genomes ~scores;
      Array.iteri
        (fun i a ->
          let s = auc_score st i in
          Telemetry.set_gauge
            ("search.ensemble.credit." ^ a.arm_name)
            (if s = infinity then 1.0 else s))
        st.arms
  end)
