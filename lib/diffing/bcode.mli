(** Shared binary-analysis layer for the diffing tools.

    Wraps {!Isa.Binary.analyze} into the representation every tool
    consumes: per-function basic blocks (with integer ids), CFG edges,
    and a token stream per instruction.  Function and block matching by
    the tools never uses [name] — it is ground truth for Precision@1
    only.  Library functions (the MinC stdlib linked into every program)
    are flagged so evaluations can restrict themselves to user code, as
    the paper's "non-library functions" metric does. *)

type block = {
  id : int;  (** index within the function *)
  insns : Isa.Insn.insn list;
  succs : int list;  (** successor block ids *)
}

type func = {
  name : string;  (** ground truth only *)
  is_library : bool;
  entry_id : int;
  blocks : block array;
  edges : (int * int) list;
  calls : int list;  (** callee function indices *)
  code_bytes : string;
}

type t = {
  binary : Isa.Binary.t;
  funcs : func array;
}

val analyze : Isa.Binary.t -> t
(** Recovers functions, blocks and edges from the binary.  Nothing is
    cached: each call analyses the binary again, so callers that need
    one analysis twice hold on to the result. *)

val tokens_of_insn : Isa.Insn.insn -> string list
(** Lexical token stream of one instruction: mnemonic, register names,
    normalized immediates ("imm" for large constants, literal text for
    small ones), symbol placeholders.  Used by the learning-based tools
    (Asm2Vec / INNEREYE) exactly as they lexify real assembly. *)

val opcode_class : Isa.Insn.insn -> int
(** Coarse instruction class (0..15): arithmetic, logic, compare, move,
    load, store, branch, call, vector, …  Used by the statistical
    tools. *)

val n_opcode_classes : int

val code_stream : Isa.Binary.t -> string
(** The opcode-class stream of the code section: one byte, the
    {!opcode_class}, per instruction of one linear sweep of the whole
    text.  The NCD fitness compresses it ([Bintuner.Tuner.code_stream]),
    and the AV code scanners match substrings of it. *)
