(** Normalized Compression Distance (NCD) — BinTuner's fitness function.

    NCD(x, y) = (C(x·y) − min(C(x), C(y))) / max(C(x), C(y))

    where C is the compressed length under {!Lz} and x·y is concatenation.
    The score approximates the (uncomputable) normalized information
    distance grounded in Kolmogorov complexity: 0.0 for identical inputs,
    approaching 1.0 as the inputs share no structure.  The paper computes
    it over the raw bytes of the binaries' code sections.

    The C(x·y) term always goes through {!Lz.compress_pair}'s two-segment
    view — no entry point here ever materializes [x ^ y].  Batch scoring
    ({!against}, {!matrix}) shares a {!Sizecache} so repeated terms are
    compressed once per content, and fans out over a [Parallel.Pool]. *)

val distance : string -> string -> float
(** [distance x y] — NCD of two byte strings at [Lz.default_level ()].
    Symmetric up to compressor imperfection;
    0.0 when both are empty. *)

val distance_via : Sizecache.t -> string -> string -> float
(** [distance_via cache x y] — NCD with all three terms memoized in
    [cache] (at the cache's level).  Equal to {!distance} at that level,
    to the bit. *)

val against :
  ?pool:Parallel.Pool.t ->
  ?span:string ->
  cache:Sizecache.t ->
  baseline:string ->
  string array ->
  float array
(** [against ~cache ~baseline xs] — [distance_via cache x baseline] for
    every [x], in input order.  The baseline's solo size is warmed before
    the fan-out.  [pool] parallelizes across workers (results are order-
    and scheduling-independent); [span] wraps each element's computation
    in a telemetry span of that name. *)

val matrix :
  ?pool:Parallel.Pool.t -> cache:Sizecache.t -> string array -> float array array
(** [matrix ~cache xs] — the full symmetric pairwise NCD matrix.  Solo
    sizes are warmed first, then the strict upper triangle is scored
    (across [pool] when given) and mirrored; the diagonal is fixed at
    [0.] (the metric's ideal self-distance, rather than the compressor's
    small positive approximation of it). *)
