(** BinHunt (Gao, Reiter, Song — ICICS'08), reproduced per the paper's
    Appendix A, the objective reference metric for every Figure 5 / Table
    4 / Table 5 experiment:

    1. basic-block matching: 1.0 for functionally equivalent blocks using
       the same registers, 0.9 with different registers, 0.0 otherwise
       (equivalence via the symbolic summaries of {!Semantics});
    2. CFG matching score: Σ matched block scores ÷ min(|CFG₁|, |CFG₂|),
       with the matching found by a backtracking subgraph-isomorphism
       search seeded at the entry blocks;
    3. call-graph matching score: Σ CFG scores of matched functions ÷
       min(|CG₁|, |CG₂|) (maximum-weight assignment);
    4. difference score = 1.0 − CG matching score (higher = more
       different). *)

type detail = {
  score : float;  (** the difference score, 0.0–1.0 *)
  matched_functions : (int * int * float) list;
      (** function index pairs with their CFG matching scores *)
  matched_blocks : int;  (** total matched basic-block pairs *)
  total_blocks : int * int;
  matched_edges : int;  (** CFG edges preserved by the block matching *)
  total_edges : int * int;
}

val compare_binaries : Isa.Binary.t -> Isa.Binary.t -> detail

val compare_analyses : Bcode.t -> Bcode.t -> detail
(** [compare_binaries] on binaries already analysed, for callers that
    read the analyses too; [matched_functions] index their [funcs]. *)

val diff_score : Isa.Binary.t -> Isa.Binary.t -> float
(** Just the difference score. *)
