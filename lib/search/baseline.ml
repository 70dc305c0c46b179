(* Random search: the control every guided strategy is benchmarked
   against.  The first batch is the repaired -Ox seeds (padded to the
   batch size with random genomes), every later one is a fresh batch of
   random repaired genomes.  Scores are ignored — that is the point. *)

let random () : Strategy.t =
  let batch = 16 in
  (module struct
    let name = "random"

    type state = { problem : Strategy.problem; mutable started : bool }

    let init ~rng:_ ~problem ~termination:_ = { problem; started = false }

    let ask st ~rng =
      if not st.started then begin
        st.started <- true;
        Strategy.seed_batch ~rng ~problem:st.problem ~target:batch
      end
      else
        Array.init batch (fun _ ->
            st.problem.Strategy.repair
              (Strategy.random_genome rng st.problem.Strategy.ngenes))

    let tell _ ~rng:_ ~genomes:_ ~scores:_ = ()
  end)
