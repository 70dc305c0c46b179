(** A small DPLL SAT solver.

    Stands in for the paper's use of Z3: BinTuner encodes compiler-flag
    dependency and conflict rules as logical formulas and checks each newly
    generated optimization sequence against them.  Flag constraints are
    purely propositional, so DPLL with unit propagation suffices.

    Variables are non-negative integers.  A literal is [Pos v] or [Neg v]. *)

type literal = Pos of int | Neg of int

type clause = literal list
(** A disjunction of literals. *)

type cnf = clause list
(** A conjunction of clauses. *)

type result =
  | Sat of bool array  (** A satisfying assignment indexed by variable. *)
  | Unsat

val eval : bool array -> cnf -> bool
(** Evaluate a full CNF under a total assignment: true iff every clause
    has a satisfied literal. *)

val solve : ?nvars:int -> cnf -> result
(** Decide satisfiability.  [nvars] (default: 1 + max variable mentioned)
    sizes the assignment array; unconstrained variables default to false. *)

val solve_with_assumptions : ?nvars:int -> cnf -> literal list -> result
(** [solve_with_assumptions cnf assumptions] decides satisfiability of the
    CNF with each assumption added as a unit clause.  This is how BinTuner
    asks "is this concrete flag vector consistent with the rules?" and, on
    failure, searches for a nearby repair. *)
