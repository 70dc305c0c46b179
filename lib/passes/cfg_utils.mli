(** Control-flow analyses shared by the IR-level passes. *)

module Iset = Analysis.Dataflow.Iset

val reachable : Vir.Ir.func -> Iset.t
(** Labels reachable from the entry block. *)

val dominators : Vir.Ir.func -> (int, Iset.t) Hashtbl.t
(** [dominators f] maps each reachable label to the set of labels that
    dominate it (including itself).  Cooper–Harvey–Kennedy immediate
    dominators over blocks indexed by layout position; the table is
    filled in layout order. *)

val dom_children : Vir.Ir.func -> int -> int list
(** [dom_children f l] lists the reachable labels whose immediate
    dominator is [l], in increasing label order. *)

type loop = {
  header : int;
  body : Iset.t;  (** all labels in the natural loop, including header *)
  back_edges : int list;  (** sources of the latch edges *)
}

val natural_loops : Vir.Ir.func -> loop list
(** Natural loops from back edges (target dominates source).  Loops with
    the same header are merged.  Ordered innermost-first (by body size). *)

val def_counts : Vir.Ir.func -> (int, int) Hashtbl.t
(** Static definition count of each register: its instruction defs, one
    at entry for a parameter, and two for a [Loop_branch] counter, so
    that a counter never looks single-definition. *)

val loop_defs : Vir.Ir.func -> loop -> (int, unit) Hashtbl.t
(** The registers the loop's blocks define, [Loop_branch] counters
    included (the terminator decrements its counter every iteration). *)

val insert_preheader : Vir.Ir.func -> loop -> Vir.Ir.instr list -> unit
(** Add a block holding the instructions that jumps to the loop header,
    retarget every edge into the header from outside the loop body to
    it, and place it just before the header in layout. *)

val block_order_dfs : Vir.Ir.func -> int list
(** Reverse-postorder labels from entry — the canonical layout used by the
    block-reordering pass. *)
