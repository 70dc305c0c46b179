(** Binary encoding and decoding of VX instructions.

    Each architecture has its own machine-code format:
    - x86-32: variable length, 1-byte opcodes (salt 0x00), immediates in
      1 or 4 bytes;
    - x86-64: variable length, opcode salt 0x40, immediates in 1, 4, or
      8 bytes;
    - arm: 4-byte words, opcode salt 0x80, wide immediates in trailing
      literal words;
    - mips: like arm with salt 0xC0 and a different register packing.

    Branch targets ([Ijmp]/[Ijcc]/[Iloop]/[Ijtab] operands and the jump
    table entries) are absolute byte offsets at the [insn] level, encoded
    PC-relative (to the instruction start, via [~at]) in 4 fixed bytes so
    the assembler can backpatch them and so identical code sequences are
    byte-identical wherever they land.

    [decode (encode arch is) = is] for every well-formed instruction
    list — the decoder is the reproduction's disassembler. *)

val encode : ?at:int -> Insn.arch -> Insn.insn -> string
(** Encode one instruction as if placed at byte offset [at] (default 0);
    [at] only affects the encoding of branch targets. *)

val encoded_length : Insn.arch -> Insn.insn -> int

val decode : Insn.arch -> string -> pos:int -> Insn.insn * int
(** [decode arch text ~pos] returns the instruction at byte offset [pos]
    and the offset of the next instruction.  Raises [Invalid_argument] on
    malformed bytes. *)

val sweep :
  Insn.arch ->
  string ->
  pos:int ->
  stop:int ->
  (int -> Insn.insn -> int -> unit) ->
  unit
(** [sweep arch text ~pos ~stop f] is the linear sweep: it calls
    [f offset insn next] for each instruction from [pos] on, in order,
    while [offset < stop], so the last one may run past [stop].  Every
    linear reader of code decodes through it; only the recursive descent
    and the gadget census decode at offsets of their own choosing.  A
    finished sweep adds its instruction count to the telemetry counter
    ["isa.sweep.insns"].
    Raises [Invalid_argument] where {!decode} does. *)
