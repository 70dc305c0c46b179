(** The VX virtual machine: executes compiled binaries.

    Machine model: 16 global general registers (R13 = stack pointer), 8
    vector registers, a flags word set only by [Icmp]/[Itest], a flat
    word-addressed data memory initialized from the binary's data
    section, and a word-addressed stack used by push/pop/call/ret and
    frame accesses.  The stack spans words [\[0, stack_words)], but
    [stack_words] is only a limit: memory is held for the part a run has
    written, grown on demand from the top, and every word not yet
    written reads 0.

    The VM is the ground truth for functional correctness: every tuned
    binary must produce the same output stream and exit value as the -O0
    binary on the program's test workloads (the paper's "all of
    BinTuner's outputs pass the test cases" check).  It also counts
    dynamic instructions, which Table 3's speedup comparison uses. *)

type result = {
  output : Vir.Interp.output_item list;
  return_value : int;
  steps : int;  (** dynamic instruction count *)
}

exception Trap of string
(** Invalid memory access (any stack access outside
    [\[0, stack_words)] included), bad jump target, stack overflow,
    undecodable text or an operand the binary does not have; division is
    handled per MinC semantics (never traps).  These and {!Out_of_fuel}
    are the only exceptions a run raises, whatever the binary's bytes. *)

exception Out_of_fuel

type prepared
(** A binary decoded once for any number of runs: its text as an
    instruction array, with branch, call and [la] targets resolved to
    instruction indices, data symbols to their base words and registers
    checked against the machine's.  Immutable, so runs on several
    domains may share one; each run copies the data image and holds its
    own stack. *)

val prepare : Isa.Binary.t -> prepared
(** Decode and resolve a binary.  Raises {!Trap} when the text does not
    decode.  An operand out of range (a register, vector register, data
    symbol or function id the binary does not have) or a branch to an
    offset that starts no instruction is not an error yet: the
    instruction traps when a run executes it. *)

val execute : prepared -> input:int array -> result
(** Execute from the binary's entry function, with fuel for 100 million
    instructions and a stack limit of 1 Mi words.  A run that returns
    adds 1 to the telemetry counter [vm.runs] and its step count to
    [vm.steps]. *)

val execute_function :
  ?fuel:int ->
  ?stack_words:int ->
  prepared ->
  fid:int ->
  args:int list ->
  input:int array ->
  result
(** Call an arbitrary function against the binary's initial data image —
    the entry point used by the IMF-SIM reproduction's in-memory fuzzing.
    [args] are the call's stack arguments in call order: the first binds
    the function's first parameter, as in a call [f(a, b)] compiled from
    source. *)

val run :
  ?fuel:int -> ?stack_words:int -> Isa.Binary.t -> input:int array -> result
(** [execute] of [prepare bin], with [fuel] and [stack_words] limits
    (defaults as in {!execute}). *)
