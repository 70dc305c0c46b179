(** The pass-prefix snapshot store behind incremental compilation.

    [Toolchain.Pipeline] snapshots the compilation stage after every
    pipeline step under a key chaining (program digest, profile, arch)
    with each applied step's parameterized identity; this module is the
    cache those snapshots live in — a byte-bounded {!Util.Lru} (sized in
    bytes because the values are whole marshaled IR stages).  One store is shared by every
    worker domain of a tuning run through {!snapshot_store}, so a flag
    vector evaluated on one worker seeds prefix resumes for its
    single-bit neighbours on every other worker.

    Caching is lossless: a compile through the store — warm, cold, or
    mid-eviction — emits bytes identical to a from-scratch compile.  The
    differential oracle in the test suite ([frozen_incremental]) and the
    cache-invariant tests pin this down; hit/miss traffic is also
    reported through the [incr.hit] / [incr.miss] telemetry counters. *)

type t

val create : ?max_bytes:int -> unit -> t
(** A fresh store bounded to [max_bytes] of resident snapshot payload
    (default 64 MiB).  Least-recently-used entries are evicted once the
    budget is exceeded; an entry bigger than the whole budget is never
    admitted. *)

val snapshot_store : t -> Toolchain.Pipeline.snapshot_store
(** The closure record to inject into [Pipeline.compile_flags] /
    [compile_preset].  Safe to share across domains. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val bytes : t -> int
(** Resident payload bytes (including a fixed per-entry overhead
    charge); never exceeds the [max_bytes] given to {!create}. *)
