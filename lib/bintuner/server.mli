(** The serve daemon — tuning as a service.

    A long-running process that accepts tuning jobs over a simple line
    protocol (one request per line in, one single-line JSON object per
    response out) and multiplexes them onto one shared {!Session}, so
    successive jobs over the same corpus hit each other's compiled
    binaries, compressed sizes and pass-prefix snapshots — and, with a
    persistent {!Store} attached, so do jobs after a daemon restart.

    Requests: [tune k=v ...] (run one job), [status], [quit].  Job
    parameters: [bench], [profile], [arch], [strategy], [budget] (max
    evaluations), [seed], [objective] ({!Search.Objective.parse}
    grammar, e.g. [objective=ncd,gadgets:0.5]) — all optional.  Blank
    lines and [#] comments are ignored; malformed requests get an
    [{"ok":false,...}] response and never kill the daemon.

    Jobs run one at a time on the daemon thread (parallelism lives
    inside each job, on the session's pool); every job runs under a
    [serve.job] telemetry span whose ambient [job] attribute tags the
    spans it records.  The daemon keeps no per-job state beyond a count
    of completed jobs: a job's summary is its response.  {!handle_line}
    is the entire protocol, so tests drive a daemon in-process;
    {!serve_channel} (stdin/stdout, the CI smoke mode) and
    {!serve_unix} (Unix socket) are thin transports over it. *)

type t

val create :
  ?jobs:int ->
  ?store_dir:string ->
  ?store_max_bytes:int ->
  ?memo_max_bytes:int ->
  unit ->
  t
(** A fresh daemon.  [jobs] sizes the session's worker pool (default 1).
    [store_dir] attaches a persistent artifact store rooted there
    (created if missing, crash leftovers swept); without it the daemon
    still shares in-memory caches across jobs but persists nothing. *)

val session : t -> Session.t

val handle_line : t -> string -> string list * bool
(** Process one request line; returns the response lines (each a
    complete single-line JSON object, rendered by {!Util.Json}) and
    [false] iff the request was [quit].  Never raises on bad input.

    A job response is [{"ok":true,"job",...,"functional_ok",
    "wall_seconds","counters":{...}}], [counters] being the job's
    {!Tuner.result} counters.  A [status] response carries [completed]
    (the number of jobs served), [counters] ({!Session.counters},
    session totals), [memo] ([entries], [bytes]), [store] ([false], or
    [entries], [bytes], [max_bytes]) and [live_domains] — a fixed set
    of keys, whatever the number of jobs served. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve requests from a channel pair until [quit] or EOF, flushing
    after every request — [serve_channel t stdin stdout] is the CI smoke
    transport.  Both transports share one loop, which reads at most
    64 KiB of a request line: a longer line is answered with an
    [{"ok":false,...}] error, the rest of it discarded, and serving goes
    on. *)

val serve_unix : t -> string -> unit
(** Bind a Unix domain socket at a path (replacing any stale socket
    file), then serve connections one at a time, over the same loop as
    {!serve_channel}, until some client sends [quit].  A dropped
    connection returns the daemon to accept; the socket file is removed
    on the way out. *)

val close : t -> unit
(** Shut down the daemon's session (its pool).  Does not interrupt
    {!serve_unix}; call after the serve loop returns. *)
