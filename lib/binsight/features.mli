(** Static feature extraction over a recovered binary: call-graph
    reachability (dead-function bytes), per-function stack-depth bounds
    (interval analysis over the recursive-descent CFG via the generic
    {!Analysis.Dataflow.Make_graph} engine), opcode-class histograms and
    the BinPro-style provenance vector consumed by
    [Provenance.Classify]. *)

type stack_bound = Finite of int | Unbounded

type func_features = {
  ff_name : string;
  ff_addr : int;
  ff_len : int;
  ff_reachable : bool;
  ff_stack : stack_bound;  (** peak words pushed beyond function entry *)
  ff_insns : int;
  ff_blocks : int;
}

type t = {
  histogram : int array;  (** opcode-class counts over the whole text *)
  insn_count : int;
  dead_functions : string list;  (** in function-id order *)
  dead_bytes : int;
  per_function : func_features list;
  provenance : float array;
}

val n_provenance : int
(** Length of {!provenance_vector}: the 16 opcode classes plus 8
    idiom counters. *)

val provenance_vector : Isa.Binary.t -> float array
(** The classifier feature vector: per-class and per-idiom instruction
    frequencies normalized by instruction count.  This is the extractor
    [Provenance.Classify] trains on. *)

val extract : Isa.Binary.t -> Disasm.t -> t
