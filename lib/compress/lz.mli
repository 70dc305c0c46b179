(** Lossless compression used by the NCD fitness function.

    Stands in for the paper's LZMA: an LZ77 match finder (hash-chained,
    32 KiB window) whose token stream is entropy-coded with an order-0
    adaptive arithmetic coder.  What NCD needs from the compressor is that
    repeated structure compresses well — boilerplate O0 code has a much
    higher compression ratio than heavily optimized, irregular code — and
    this combination delivers that property.

    The match finder comes in two {!level}s sharing one token format and
    one {!decompress}: {!Greedy} is the original finder, kept bit-for-bit
    stable as a differential oracle and determinism sentinel, and
    {!Chained} is the hash-chain finder the tuning stack runs on (bounded
    chain walk, candidate prefilter, early exit, lazy one-step-deferred
    matching) — faster {e and} stronger on repetitive [.text] streams. *)

type level =
  | Greedy
      (** The pre-overhaul finder, frozen: fixed 64-candidate chain walk,
          immediate emission, no early exit.  Output bytes are stable
          across releases — the property-test layer and the table1
          sentinel depend on it. *)
  | Chained of int
      (** [Chained depth] walks at most [depth] chain candidates per
          position, with lazy matching.  Larger depths trade throughput
          for ratio. *)

val default_chain_depth : int
(** Chain depth of the default level (128). *)

val default_level : unit -> level
(** The level {!compress}, {!compress_pair} and [Ncd.distance] run at, and
    the one the size functions use when their [?level] is omitted.  Starts
    as [Chained default_chain_depth]. *)

val set_default_level : level -> unit
(** Install a process-wide default level.  Call at startup (before worker
    domains spawn); the [--lz-level] CLI/bench flags route here. *)

val level_name : level -> string
(** ["greedy"] or ["chained-<depth>"]. *)

val level_of_string : string -> level
(** Inverse of {!level_name}; also accepts ["chained"] (default depth)
    and ["chained:<depth>"].  Raises [Invalid_argument] otherwise. *)

val compress : string -> string
(** [compress s] returns the compressed representation of [s], at
    {!default_level}. *)

val compress_pair : string -> string -> string
(** [compress_pair x y] is byte-identical to [compress (x ^ y)], but
    never materializes the concatenation — the NCD C(x·y) term reads both
    strings through a two-segment view. *)

val decompress : string -> string
(** Inverse of {!compress} (and {!compress_pair}), whatever level
    produced the stream.  Raises [Invalid_argument] on corrupt input.
    Provided so tests can check the coder is genuinely lossless (NCD's
    theoretical grounding requires a real compressor, not a size
    estimator). *)

val compressed_size : ?level:level -> string -> int
(** [compressed_size s = String.length (compress s)] at [level] (default
    {!default_level}).  This is the [C(x)] of the NCD formula; a size cache
    pins the level it was created at through [level]. *)

val compressed_size_pair : ?level:level -> string -> string -> int
(** [compressed_size_pair x y = String.length (compress (x ^ y))] without
    the copy — the [C(x·y)] term. *)
