(** The binary artifact produced by the compiler and consumed by the
    diffing tools, the AV scanners, the VM, and the NCD fitness function.

    A binary carries its raw text/data bytes plus a symbol table.  The
    per-function instruction lists and CFGs exposed to the diffing tools
    are *reconstructed from the bytes* by {!analyze} (a {!Codec.sweep}
    per function + {!split_blocks}), the way IDA-based tools consume
    stripped binaries with known function boundaries.  Function names are
    retained solely as ground truth for Precision@1 scoring — no diffing
    tool may match on them. *)

type t = {
  arch : Insn.arch;
  profile : string;  (** producing compiler profile, e.g. "gcc-10.2" *)
  opt_label : string;  (** "-O2", "-Os", "bintuner", … (provenance) *)
  text : string;  (** raw code bytes *)
  data : string;  (** serialized initial data memory *)
  data_words : int array;  (** initial data memory, word view *)
  symbols : (string * int * int) array;
      (** data symbols: (name, base word address, size in words) *)
  functions : (string * int * int) array;
      (** (name, entry byte offset, code byte length); index = call id *)
  entry : int;  (** function id of [main] *)
  ret_reg : int;  (** ABI return register (varies with struct-return flags) *)
}

(** A basic block reconstructed from the bytes. *)
type bblock = {
  b_addr : int;  (** byte offset of the leader *)
  b_insns : (int * Insn.insn) list;
  b_succs : int list;  (** successor block addresses *)
}

(** Analysis result for one function. *)
type bfunc = {
  f_name : string;
  f_id : int;
  f_addr : int;
  f_insns : (int * Insn.insn) list;
  f_blocks : bblock list;
  f_calls : int list;  (** callee function ids, static *)
}

val flow : Insn.insn -> next:int -> int list * bool
(** Control transfers out of an instruction located just before [next],
    as [(branch targets, falls_through)].  Calls fall through (the
    callee returns); [Iret]/[Ijmpf] end the flow. *)

val split_blocks :
  lo:int ->
  stop:int ->
  (int * Insn.insn * int) list ->
  (int * (int * Insn.insn * int) list * int list) list
(** [split_blocks ~lo ~stop items] splits the instructions
    [(offset, insn, next)] of the function whose bytes run from [lo] up
    to [stop], ascending by offset and possibly with gaps, into basic
    blocks [(leader, items, successor leaders ascending)], ascending by
    leader.  Branch targets and the instructions after block-ending
    transfers (jumps, branches, loops, jump tables, returns and tail
    calls; not calls) are leaders.  The first instruction, and the first
    one after a block-ending transfer, start a block wherever they lie.
    A block that runs into a leader gets a fallthrough edge only if that
    leader is its last instruction's [next].  Successors outside the
    function are dropped.  The linear sweep ({!analyze}) and the
    recursive descent of [Binsight.Disasm] both split their instructions
    here. *)

val analyze : t -> bfunc list
(** Disassemble and reconstruct every function's CFG. *)

val code_of_function : t -> int -> string
(** Raw bytes of one function's body (for per-function NCD). *)

val size : t -> int
(** Total binary size in bytes (text + data). *)

val serialize_data : int array -> string
(** Pack the initial data memory into bytes (stored in [data]). *)
