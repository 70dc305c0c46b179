(** Verified recursive-descent disassembly.

    Re-disassembles every function by following control flow from its
    entry (branches, fallthroughs, calls, [Ijtab] jump-table targets)
    and cross-checks the result against the linear sweep
    ({!Isa.Binary.analyze}) and, when supplied, the compiler's
    ground-truth instruction boundaries (from
    [Toolchain.Pipeline.compile_preset ~boundaries]).  Any {!mismatch} is a
    real defect in codec, assembler or CFG recovery; the ci.sh inspect
    gate keeps the corpus at zero.  Bytes the descent never reaches
    (alignment nops after unconditional transfers) are reported as
    unreachable statistics, not mismatches. *)

type insn_at = { i_addr : int; i_insn : Isa.Insn.insn; i_next : int }

type bblock = {
  rb_addr : int;
  rb_insns : insn_at list;
  rb_succs : int list;  (** successor leader addresses, ascending *)
}

type mismatch = {
  m_func : string;
  m_addr : int;
  m_kind : string;
      (** ["decode-error"], ["overrun"], ["not-in-linear"],
          ["insn-differs"] or ["ground-truth"] *)
  m_detail : string;
}

type func_disasm = {
  d_name : string;
  d_addr : int;
  d_len : int;
  d_insns : insn_at list;  (** reachable instructions, ascending *)
  d_blocks : bblock list;  (** ascending by leader address *)
  d_calls : int list;  (** callee function ids (from the linear sweep) *)
  d_unreachable : int;  (** bytes never reached by the descent *)
  d_mismatches : mismatch list;
}

type t = {
  funcs : func_disasm list;  (** in function-id order *)
  total_insns : int;
  total_unreachable : int;
  mismatches : mismatch list;
}

val recover : ?ground_truth:(string, int list) Hashtbl.t -> Isa.Binary.t -> t
(** [ground_truth] maps function name → ascending true instruction-start
    offsets, as filled in by [Pipeline.compile_preset ~boundaries]. *)
