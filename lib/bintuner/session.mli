(** A long-lived tuning session — the shared caches and worker pool that
    serving mode multiplexes jobs onto.

    Every {!Tuner.tune} call runs on a session: a one-shot call creates a
    throwaway one and closes it on return; passing a long-lived session
    instead makes every job read and write the same {!Memo},
    {!Compress.Sizecache}, {!Incremental} and final-selection ({!check})
    instances, so jobs over the same corpus hit each other's compiled
    binaries, compressed sizes, pass-prefix snapshots, functional
    verdicts and BinHunt scores.  Optionally backed by a persistent {!Store},
    which also survives daemon restarts.

    The session owns every key and value format of these caches: callers
    compose {!compile}, {!sizecache}, {!functional_check} and
    {!diff_score} and never build a key.

    Sharing is lossless: every constituent cache is keyed on full content
    identity and holds pure-function-of-key values, so a cross-job hit is
    bit-identical to a recompute.  Only the counters (and wall-clock)
    reveal the session was warm — {!Tuner.result} reports per-job
    {!counters} {e deltas} so a job's numbers mean the same thing with or
    without a session. *)

type t

val create :
  ?jobs:int ->
  ?pool:Parallel.Pool.t ->
  ?memo_max_bytes:int ->
  ?store:Store.t ->
  unit ->
  t
(** [create ()] — a fresh session.  [jobs] (default 1) sizes the pool the
    session creates and owns; passing an explicit [pool] instead hands
    the session a caller-owned pool that {!close} will {e not} shut down.
    [memo_max_bytes] bounds the shared compile memo
    (default {!Memo.default_max_bytes}); [0] admits nothing, so every
    compile request runs the pipeline — the memo-off reference.
    [store] attaches a persistent artifact store: compiled binaries and
    compressed sizes are then written through to disk and consulted on
    memo / size-cache misses.  The session's one size cache measures at
    {!Compress.Lz.default_level}, read here. *)

val pool : t -> Parallel.Pool.t
val memo : t -> Memo.t
val incremental : t -> Incremental.t
val store : t -> Store.t option

val sizecache : t -> Compress.Lz.level -> Compress.Sizecache.t
(** [sizecache t level] — the session's one size cache, backed by the
    store when one is attached.  Raises [Invalid_argument] unless [level]
    is the level the session was created at. *)

val compile :
  t ->
  program:string ->
  profile:string ->
  arch:Isa.Insn.arch ->
  (bool array -> Isa.Binary.t) ->
  bool array ->
  Isa.Binary.t
(** [compile t ~program ~profile ~arch build vector] — [build vector]
    through the session's compile tiers: the {!Memo} under
    {!Memo.key}, then (on a memo miss, when a store is attached) the
    {!Store}, and only then [build] itself, whose result is written
    through to the store.  [program] is a digest of the source, as
    {!Memo.key} wants.  Thread-safe; [build] runs unlocked. *)

(** {1 Final selection}

    The functional check and the BinHunt score, read through one
    final-selection cache: a {!Util.Lru} bounded by entry count (4096),
    keyed by MD5 digests of whole marshalled binaries and of the workload
    inputs.  A warm job over already-checked bytes runs neither the VM
    nor BinHunt.  Errors are never cached: a trapping run raises and
    adds nothing.  Its traffic is counted as [check.hit], [check.miss]
    and [check.evict]. *)

type check
(** A handle on a final-selection cache.  It holds no reference to the
    session, so a check run through it does not keep the session's other
    caches alive. *)

val check : t -> check
(** The session's final-selection cache. *)

val create_check : unit -> check
(** A fresh final-selection cache owned by no session. *)

val functional_check :
  check -> Corpus.benchmark -> baseline:Isa.Binary.t -> Isa.Binary.t -> bool
(** [functional_check c bench ~baseline bin] — whether [bin] produces the
    same output stream and exit value as the O0 [baseline] on every one
    of [bench]'s workload inputs in the VM.  The baseline's outputs are
    computed once per (baseline, inputs) pair and the verdict once per
    (baseline, candidate, inputs) triple, so a repeat call runs no VM.
    Equal to the direct [List.for_all] over the workloads.  A trapping or
    non-terminating run raises {!Vm.Machine.Trap} or
    {!Vm.Machine.Out_of_fuel}, on every call.  Partially applied to
    [~baseline], it digests the baseline once for every candidate. *)

val diff_score : check -> baseline:Isa.Binary.t -> Isa.Binary.t -> float
(** [diff_score c ~baseline bin] = [Diffing.Binhunt.diff_score bin
    baseline], computed once per pair of contents.  Partially applied
    to [~baseline], it digests the baseline once for every candidate. *)

val check_counters : check -> (string * int) list
(** [check.hit], [check.miss], [check.evict] of one final-selection
    cache — the entries {!counters} reports for {!check}. *)

val counters : t -> (string * int) list
(** Every cache counter the session owns, always the same names in the
    same order: [memo.hit], [memo.miss], [memo.evict]; [sizecache.hit],
    [sizecache.miss]; [incr.hit], [incr.miss], [incr.evict];
    [check.hit], [check.miss], [check.evict] ({!check_counters});
    [store.hit], [store.miss], [store.evict], [store.quarantine] (all 0
    without a store).  The names are the ones telemetry counts under.
    The daemon's [status] reports this list; {!Tuner.result} reports its
    per-call delta. *)

val close : t -> unit
(** Shut down the session's pool if the session created it (a no-op for
    a caller-supplied pool).  The caches need no teardown. *)
