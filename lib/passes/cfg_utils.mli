(** Control-flow analyses shared by the IR-level passes. *)

module Iset = Analysis.Dataflow.Iset

val reachable : Vir.Ir.func -> Iset.t
(** Labels reachable from the entry block. *)

val dominators : Vir.Ir.func -> (int, Iset.t) Hashtbl.t
(** [dominators f] maps each reachable label to the set of labels that
    dominate it (including itself).  Cooper–Harvey–Kennedy immediate
    dominators over blocks indexed by layout position; the table is
    filled in layout order. *)

type loop = {
  header : int;
  body : Iset.t;  (** all labels in the natural loop, including header *)
  back_edges : int list;  (** sources of the latch edges *)
}

val natural_loops : Vir.Ir.func -> loop list
(** Natural loops from back edges (target dominates source).  Loops with
    the same header are merged.  Ordered innermost-first (by body size). *)

val block_order_dfs : Vir.Ir.func -> int list
(** Reverse-postorder labels from entry — the canonical layout used by the
    block-reordering pass. *)
