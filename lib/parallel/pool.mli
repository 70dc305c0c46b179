(** A fixed-size domain worker pool for deterministic data parallelism.

    The tuning loop's dominant cost is embarrassingly parallel — compile a
    candidate flag vector, measure its NCD — so the engine only needs a
    simple shape: split an immutable input array into contiguous chunks,
    hand the chunks to [n] worker domains, and reassemble results by input
    index.  There is deliberately no work stealing and no futures layer:
    static chunking keeps scheduling decisions out of the result entirely,
    which is what makes [j]-independence testable (the differential suite
    asserts bit-identical tuning outcomes at every [-j]).

    Guarantees:
    - {b Ordering}: [map pool f xs] returns exactly [Array.map f xs] —
      element [i] of the result is [f xs.(i)], whatever the scheduling.
    - {b Exceptions}: if any application raises, the whole batch still
      runs to completion, then the exception of the {e lowest} failing
      input index is re-raised in the caller — again independent of
      worker timing.
    - {b Re-entrancy}: calling [map] from inside a pool worker (nested
      parallelism) degrades to inline sequential execution instead of
      deadlocking, so parallel call sites compose freely.

    A pool of size ≤ 1 spawns no domains and runs everything inline; all
    code paths are otherwise identical, so [-j 1] is the sequential
    reference the differential tests compare against. *)

type t

val create : int -> t
(** [create n] starts a pool of [n] parallel lanes: [n - 1] spawned
    domains plus the submitting caller itself, which helps execute
    queued chunks while its batch is in flight (so [-j n] delivers
    [n]-way throughput, not [n - 1]).  [n <= 1] creates an inline pool
    with no domains.  Pools are lightweight; idle workers block on a
    condition variable. *)

val size : t -> int
(** Number of parallel lanes ([n] as passed to {!create}, at least 1). *)

val default_size : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default. *)

val map : ?chunk_size:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] applies [f] to every element, in parallel across the
    pool, preserving input order in the result.  [chunk_size] controls
    the granularity of the work units (default: [ceil (n / size)], i.e.
    one contiguous chunk per worker); pass [~chunk_size:1] when items are
    few and heavy (e.g. whole tuning jobs) so they balance across
    workers. *)

val map_list : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; same guarantees. *)

val shutdown : t -> unit
(** Terminate the worker domains and join them.  Idempotent.  Using the
    pool after [shutdown] runs inline. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool, always shutting it down
    (including on exceptions). *)

val live_domains : unit -> int
(** Process-wide count of worker domains spawned by {!create} and not
    yet joined by {!shutdown}.  Observational, for leak regression
    tests: balanced create/shutdown pairs leave it unchanged. *)
