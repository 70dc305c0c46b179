(** Code-reuse gadget census ("Not So Fast"-style fitness primitive).

    A gadget is a suffix of at most [k] straight-line instructions
    ending in a return or indirect control transfer ([Iret], [Ijtab],
    [Icallr]), found by attempting a decode at every byte offset of the
    text section — on word-aligned arches unaligned starts simply fail
    to decode.  The census counts start sites, deduplicates gadgets by
    byte content, classifies them by terminator, and reports
    per-function site density. *)

type gclass = Gret | Gjump | Gcall

type gadget = {
  g_addr : int;  (** lowest offset the byte sequence occurs at *)
  g_len : int;  (** byte length *)
  g_insns : int;  (** instruction count, ≤ k *)
  g_bytes : string;
  g_class : gclass;
}

type census = {
  c_k : int;
  c_sites : int;  (** offsets at which some gadget starts *)
  c_unique : gadget list;  (** deduplicated by byte content, ascending *)
  c_ret : int;  (** unique gadgets per class *)
  c_jump : int;
  c_call : int;
  c_per_function : (string * int * float) list;
      (** (name, sites within the function, sites per code byte) *)
}

val default_k : int
(** 4 — short enough that every gadget is usable, long enough to count
    non-trivial tails. *)

val census : ?k:int -> Isa.Binary.t -> census
(** Right-to-left dynamic program, O(text) decodes. *)

val census_brute : ?k:int -> Isa.Binary.t -> census
(** O(text·k) re-decoding reference implementation; must agree with
    {!census} exactly (QCheck-pinned). *)
