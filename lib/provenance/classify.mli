(** Compiler-provenance recovery — the BinComp / ORIGIN substitute behind
    the Figure 1(a) Mirai study.

    A nearest-centroid classifier over binary-level features
    ({!Binsight.Features.provenance_vector}: opcode-kind histogram,
    prologue shape, alignment padding, switch-lowering and
    vector/loop-instruction witnesses) trained on labelled binaries
    compiled at the known presets.  A sample whose distance to every
    preset centroid exceeds a calibrated threshold is labelled
    "non-default" — exactly the judgement the paper's study makes for
    42 % of Mirai variants. *)

type label = {
  profile : string;  (** "gcc-10.2" or "llvm-11.0" *)
  preset : string;  (** "O0" … "Os", or "non-default" *)
}

type model

val train : (label * Isa.Binary.t) list -> model
(** Labelled presets only. *)

val classify : model -> Isa.Binary.t -> label * float
(** Best label and its distance; the label's [preset] is ["non-default"]
    when no centroid is close enough. *)
