(** Precision@1 evaluation (paper §5.3).

    Given two binaries compiled from the same source under different
    settings, each tool ranks, for every user (non-library) function of
    the first binary, the candidate functions of the second.  A hit is a
    rank-1 candidate whose ground-truth name matches.  Precision@1 is
    hits / number of user functions with a true counterpart — exactly the
    normalization the paper uses to compare tools with incompatible
    similarity metrics. *)

type report = {
  tool : string;
  hits : int;
  total : int;
  precision : float;
}

val evaluate : Tools.tool -> Isa.Binary.t -> Isa.Binary.t -> report

val evaluate_all : Isa.Binary.t -> Isa.Binary.t -> report list
(** {!evaluate} of every tool in {!Tools.all}, analyzing each binary
    once. *)
