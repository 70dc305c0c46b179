(** Thread-safe tracing and metrics for the tuning stack.

    The paper's evaluation (§4–5) is a cost story — compilation and
    BinHunt dominate the GA's own bookkeeping — and this layer is how the
    reproduction measures itself: spans (timed regions), counters, and
    gauges recorded from any domain, aggregated in memory, and optionally
    streamed to an ndjson sink (one JSON object per line).

    Everything records into the process-global instance through
    {!with_span}, {!add_count}, and {!set_gauge}; a driver or a test
    installs an instance with {!set_global} and reads it back through the
    inspection functions.  The default global
    instance is {!null}, which is {e disabled}: every entry point
    short-circuits on one flag test before allocating or locking, so
    instrumentation is free when tracing is off.  Telemetry is purely
    observational — no tuning result ever depends on it, so enabling a
    sink cannot perturb the engine's determinism guarantees (the
    j-differential and table1-sentinel tests hold with tracing on or
    off).

    Timestamps come from a wall clock clamped to be non-decreasing
    across domains, so durations are never negative. *)

type t

type sink =
  | Null  (** aggregate in memory only; no event stream *)
  | Channel of out_channel
      (** ndjson lines: spans and gauges as they happen, counters at
          {!flush} *)
  | Buffer of Buffer.t  (** ndjson lines into a buffer (tests) *)

val null : t
(** The disabled instance: all operations are no-ops. *)

val create : ?sink:sink -> unit -> t
(** A fresh enabled instance.  [sink] defaults to [Null] (aggregation
    and {!summary} still work; nothing is streamed). *)

(** {1 Global instance} *)

val set_global : t -> unit
(** Install [t] as the process-global instance.  Call once at startup,
    before worker domains are spawned. *)

val global : unit -> t

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] against the global instance and
    records a span named [name] (with optional string attributes).  If
    [f] raises, the span is still recorded — with an ["error"] attribute
    — and the exception is re-raised. *)

val with_ambient_attrs : (string * string) list -> (unit -> 'a) -> 'a
(** [with_ambient_attrs attrs f] runs [f ()] with [attrs] appended to
    every span recorded {e on this domain} inside the dynamic extent of
    [f] — the serve daemon wraps each job in one of these so its spans
    carry the job id without threading it through every call site.
    Scopes nest (inner scopes append).  Domain-local: spans recorded by
    pool workers on other domains do not inherit the scope.  Free when
    telemetry is disabled beyond one domain-local read per span. *)

val add_count : ?by:int -> string -> unit
(** Increment a named counter on the global instance (default [by:1]).
    Only the in-memory total changes: the sink sees the counter at the
    next {!flush}. *)

val set_gauge : string -> float -> unit
(** Record a named gauge observation on the global instance; the
    aggregation keeps the last and peak values. *)

(** {1 Inspection} *)

val counter_value : t -> string -> int
(** Current value of a counter (0 if never incremented). *)

val span_calls : t -> string -> int
(** Number of recorded spans under [name]. *)

val span_seconds : t -> string -> float
(** Total seconds recorded under span [name]. *)

val summary : t -> string
(** Human-readable report: per-span call counts / total / mean / max /
    wall share (spans nest, so shares need not sum to 100%), counters,
    gauges, the paper-§4.2 compile/NCD/BinHunt/functional-check cost
    split (when the [tuner.*] spans are present), and per-domain
    busy/idle time for the worker pool (when [pool.chunk] spans are
    present). *)

val flush : t -> unit
(** Write one [count] line, carrying the running total, for each counter
    incremented since the previous flush (in name order), then flush a
    [Channel] sink.  Drivers call it once at exit. *)
