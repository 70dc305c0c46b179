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
    memo / size-cache misses. *)

val pool : t -> Parallel.Pool.t
val memo : t -> Memo.t
val incremental : t -> Incremental.t
val store : t -> Store.t option

(** A final-selection result, cached under a key that names its kind. *)
type final =
  | Reference of (Vir.Interp.output_item list * int) list
      (** the O0 baseline's [(output, return value)] on each workload
          input, in workload order *)
  | Verdict of bool  (** a candidate's functional verdict *)
  | Diff_score of float  (** a {!Diffing.Binhunt.diff_score} *)

type check = (string, final) Util.Lru.t

val check : t -> check
(** The session's final-selection cache: one {!Util.Lru} bounded by
    entry count (4096), keyed by MD5 digests of whole marshalled binaries
    and of the workload inputs, through which {!Tuner.tune} reads every
    O0 reference output, functional verdict and BinHunt score.  A warm job over already-checked bytes runs neither
    the VM nor BinHunt.  Errors are never cached: a trapping run raises
    and adds nothing.  Its traffic is counted as [check.hit],
    [check.miss] and [check.evict]. *)

val check_counters : check -> (string * int) list
(** [check.hit], [check.miss], [check.evict] of one final-selection
    cache — the entries {!counters} reports for {!check}. *)

val sizecache : t -> Compress.Lz.level -> Compress.Sizecache.t
(** The session's size cache for one compression level, created on first
    use — levels measure different sizes, so each gets its own table and
    its own key namespace in the backing store. *)

val counters : t -> (string * int) list
(** Every cache counter the session owns, always the same names in the
    same order: [memo.hit], [memo.miss], [memo.evict]; [sizecache.hit]
    and [sizecache.miss], summed over every level's size cache;
    [incr.hit], [incr.miss], [incr.evict]; [check.hit], [check.miss],
    [check.evict] ({!check_counters}); [store.hit], [store.miss],
    [store.evict], [store.quarantine] (all 0 without a store).  The names
    are the ones telemetry counts under.  The daemon's [status] reports
    this list; {!Tuner.result} reports its per-call delta. *)

val close : t -> unit
(** Shut down the session's pool if the session created it (a no-op for
    a caller-supplied pool).  The caches need no teardown. *)
