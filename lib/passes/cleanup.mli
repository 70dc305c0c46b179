(** Baseline scalar cleanups — the passes every real optimization level
    above -O0 runs.  All operate in place on a {!Vir.Ir.func} or program.

    These are not flag-gated individually in the paper's sense (they are
    part of -O1 and above in both compiler profiles); the flag-gated
    transformation passes in {!Ast_opt} and {!Ir_opt} rely on them to
    clean up the code they generate. *)

val simplify_cfg : Vir.Ir.func -> unit
(** Remove unreachable blocks, thread trivial jumps, fold constant and
    same-target branches, and merge single-predecessor chains.  Runs to a
    fixpoint. *)

val mem2reg : Vir.Ir.func -> unit
(** Promote every frame slot to a dedicated virtual register (MinC takes
    no addresses, so every slot is promotable).  Leaves copies behind for
    {!lvn} to clean up. *)

val lvn : Vir.Ir.func -> unit
(** Local value numbering per basic block: constant folding and
    propagation, copy propagation, common-subexpression elimination
    (including redundant loads, invalidated by stores and calls), and a
    few algebraic simplifications. *)

val dce : Vir.Ir.func -> unit
(** Global dead-code elimination driven by liveness analysis over the
    CFG ({!Analysis.Dataflow.Liveness}, solved once per round).  Removes
    side-effect-free instructions whose destination is dead.  Runs to a
    fixpoint. *)

val run_baseline : Vir.Ir.func -> unit
(** The standard clean sequence: simplify_cfg, mem2reg, lvn, dce,
    simplify_cfg — applied after lowering and between transformation
    passes. *)
