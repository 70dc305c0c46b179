(** VIR → VX code generation.

    Responsibilities: linear-scan register allocation with spilling,
    frame layout (IR slots, local arrays, spill slots), the stack-based
    calling convention (args pushed right-to-left, return address pushed
    by [Icall], result in the ABI return register), prologue/epilogue
    with callee-saved register save/restore, switch lowering (jump table
    / binary search / linear scan), compare-branch fusion, optional
    peephole rewrites, optional function/loop alignment padding, and
    final assembly with branch target backpatching.

    Several {!options} fields correspond directly to the optimization
    flags whose binary effect the paper studies: [switch_strategy]
    ([-fjump-tables]), [peephole] ([-fpeephole2]), [align_functions] /
    [align_loops], [omit_frame_pointer], [stack_realign]
    ([-mstackrealign], requires a frame pointer), [long_calls]
    ([-mlong-call]), [allocatable_regs] (register-pressure ABI flags) and
    [return_reg] (struct-return ABI flags). *)

type switch_strategy = Jump_table | Binary_search | Linear

type options = {
  switch_strategy : switch_strategy;
  jump_table_min : int;  (** minimum case count for a table *)
  peephole : bool;
  align_functions : bool;
  align_loops : bool;
  omit_frame_pointer : bool;
  stack_realign : bool;
  long_calls : bool;
  allocatable_regs : int;
  return_reg : int;
}

val default_options : options
(** -O0-flavoured: linear switches for < 4 cases else jump table, no
    peephole, no alignment, frame pointer kept, 16 registers, result in
    R0. *)

exception Error of string

val compile_program :
  ?options:options ->
  ?boundaries:(string, int list) Hashtbl.t ->
  arch:Isa.Insn.arch ->
  profile:string ->
  opt_label:string ->
  Vir.Ir.program ->
  Isa.Binary.t
(** Generate a complete binary.  The input program must contain [main].
    When [boundaries] is given, each function name is mapped to the
    ascending text offsets of its instruction starts (alignment nops
    included) — the ground-truth oracle for the binsight disassembly
    differential.  Raises {!Error} on malformed IR (unknown callee,
    vector register pressure beyond the hardware, …). *)
