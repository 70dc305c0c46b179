(* Facade of the pluggable search layer: re-exports the strategy
   contract, the shared engine, the objective axes, the Pareto archive,
   and the strategy registry.  Everything downstream (tuner, CLI, bench
   drivers, tests) goes through [Search]; the internal modules stay
   hidden behind the wrapped library. *)

module Strategy = Strategy
module Engine = Engine
module Objective = Objective
module Pareto = Pareto
module Genetic = Genetic
module Ensemble = Ensemble

type problem = Strategy.problem = {
  ngenes : int;
  seeds : bool array list;
  repair : bool array -> bool array;
}

type termination = Strategy.termination = {
  max_evaluations : int;
  plateau_window : int;
  plateau_epsilon : float;
}

type score = Strategy.score = { vec : float array; scalar : float }

type outcome = Strategy.outcome = {
  best : bool array;
  best_fitness : float;
  best_vector : float array;
  evaluations : int;
  history : (int * float) list;
  front : (bool array * float array) list;
}

module type STRATEGY = Strategy.STRATEGY

type strategy = Strategy.t

let default_termination = Strategy.default_termination
let name = Strategy.name
let run = Engine.run

let all_names = [ "ga"; "hill"; "anneal"; "random"; "ensemble" ]

let of_name = function
  | "ga" -> Genetic.strategy ()
  | "hill" -> Local.hill_climb ()
  | "anneal" -> Local.anneal ()
  | "random" -> Baseline.random ()
  | "ensemble" -> Ensemble.strategy ()
  | other ->
    invalid_arg
      (Printf.sprintf "Search.of_name: unknown strategy %S (expected %s)" other
         (String.concat "|" all_names))
