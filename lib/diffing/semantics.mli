(** Symbolic basic-block semantics.

    Executes a basic block's instructions symbolically and produces a
    canonical summary of its behaviour: the expressions written to each
    output location (registers, memory), the ordered side-effect stream
    (stores, pushes, calls, prints), and the branch condition, all with
    input locations renamed in first-use order.  Two blocks that compute
    the same function of their inputs — possibly with different register
    assignments, instruction order, spill slots, or fused vs. materialized
    comparisons — normalize to the same summary.

    This is the reproduction of BinHunt's symbolic-execution + theorem-
    prover block matching (§2.3): equivalence is decided on normalized
    expressions rather than by an SMT query, which captures register
    swapping and reordering but (deliberately, like the original) not
    deep arithmetic rewrites — the paper shows exactly those defeating
    basic-block–centric tools. *)

type summary

val summarize : ret_reg:int -> Bcode.block -> summary
(** Symbolic summary of one block.  [ret_reg] is the ABI return register
    (used to model call results). *)

val equivalent : summary -> summary -> bool
(** Same canonical behaviour. *)

val same_registers : summary -> summary -> bool
(** The concrete output register names also coincide (BinHunt assigns
    matched blocks 1.0 in this case, 0.9 otherwise). *)

val fingerprint : summary -> int
(** Hash usable for grouping candidate equivalent blocks. *)

val output_prints : summary -> int list
(** One fingerprint per canonical output expression / observable effect —
    a finer-grained unit than whole blocks, robust to block merging. *)

val sample_per_output : ret_reg:int -> seed:int -> Bcode.block -> int list
(** Multi-MH at output granularity: one hashed I/O-sample signature per
    output expression of the block. *)
