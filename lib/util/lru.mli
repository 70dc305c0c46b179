(** A weighted least-recently-used cache, safe to share across domains.

    Every cache of the tuning stack ([Bintuner.Memo], [Bintuner.Incremental],
    [Compress.Sizecache], the [Bintuner.Store] index and the per-axis
    memos of [Search.Objective]) is one of these.  Each entry carries a
    caller-defined weight (payload bytes, or 1 to bound the entry count)
    and the resident weight never exceeds the budget: an insert evicts
    least-recently-used entries until it fits, and an entry heavier than
    the whole budget is never admitted.  A racing duplicate insert keeps
    the first entry — every cache here holds deterministic values, so
    both writers hold the same value.

    One mutex guards the table, the recency ring and the counters; a
    computation handed to {!find_or_add} runs outside it.  Hits, misses
    and evictions are counted and, when [create] is given a telemetry
    [prefix], mirrored to the global telemetry instance as
    [<prefix>.hit], [<prefix>.miss] and [<prefix>.evict]. *)

type ('k, 'v) t

val create :
  ?weight:('k -> 'v -> int) ->
  ?on_evict:('k -> 'v -> unit) ->
  ?telemetry:string ->
  budget:int ->
  unit ->
  ('k, 'v) t
(** An empty cache whose resident weight stays [<= budget].  [weight]
    defaults to 1 per entry.  [on_evict] runs on every entry evicted to
    hold the budget (not on {!remove}), with the lock held, so it must
    not call back into the cache. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Look a key up, making it the most recently used.  Counts one hit or
    one miss. *)

val find_valid : ('k, 'v) t -> 'k -> ('v -> 'r option) -> 'r option
(** [find_valid t k check] — {!find}, but the cached value is first
    passed to [check] (outside the lock), for caches whose values point
    at state that can go stale, such as a file on disk.  [Some r] counts
    a hit; [None] counts a miss and drops the entry. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Serve [k] from the cache, or run the thunk (outside the lock), {!add}
    its result and return it. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert as the most recently used entry, evicting from the least
    recently used end until the budget holds.  A no-op when the key is
    already resident (keep-first) or the entry alone outweighs the
    budget.  Counts neither a hit nor a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Whether the key is resident; recency and counters are untouched. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop an entry if resident.  Not an eviction: neither counted nor
    passed to [on_evict]. *)

val keys : ('k, 'v) t -> 'k list
(** Resident keys, most recently used first. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries evicted to hold the budget. *)

val length : ('k, 'v) t -> int
(** Resident entries. *)

val weight : ('k, 'v) t -> int
(** Resident weight; never exceeds {!budget}. *)

val budget : ('k, 'v) t -> int
