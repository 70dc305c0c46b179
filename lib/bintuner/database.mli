(** The tuning database of the paper's Figure 4: "these data are stored
    in a database for future exploration".

    Stores, per (benchmark, profile, architecture) tuning run: every
    evaluated flag vector with its fitness, plus the chosen best vector.
    The format is a line-oriented text file so runs can be resumed,
    compared across sessions, and mined for flag statistics without any
    external dependency. *)

type run = {
  benchmark : string;
  profile : string;
  arch : string;
  flag_names : string list;
  objectives : string list;
      (** axis names fixing the meaning/order of every fitness vector;
          [["ncd"]] for scalar runs and legacy files *)
  entries : (bool array * float array) list;
      (** (flag vector, objective vector) — arity = [objectives] *)
  best : bool array;
}

val of_result : Tuner.result -> Toolchain.Flags.profile -> run

val vector_to_string : bool array -> string
(** Canonical ['0'/'1'] rendering of a flag vector — the database file
    format, also used for cache keys and determinism digests. *)

val save : string -> run list -> unit
(** Write runs to a file (overwrites).  Crash-safe: the contents go to a
    sibling [path ^ ".tmp"] file first and are renamed into place only
    once complete, so a writer dying mid-save leaves any existing
    database intact.  Fitness vectors are serialized losslessly (one
    [%h] hex float per axis, in [objectives] order), so a save → load
    round-trip reproduces every double bit-exactly. *)

val load : ?objectives:string list -> string -> run list
(** Parse a database file.  Raises [Failure] on malformed input.
    Accepts both the lossless hex floats current files carry and the
    fixed-point decimals of files written before the format change;
    files from before the multi-objective format (no [obj] line, one
    fitness per entry) load with [objectives = ["ncd"]].  Every entry's
    fitness arity must agree with the run's declared objectives, and —
    when [?objectives] is given — the declared objectives must equal the
    requested ones: a run tuned for different axes is rejected with a
    clear error rather than silently mixing vectors whose components
    mean different things. *)

val test_write_failure : int option ref
(** Test-only crash injection (the {!Toolchain.Pipeline.test_break}
    idiom): [Some n] makes {!save} raise after emitting [n] lines.  The
    atomic-save regression test uses it; leave [None] everywhere else. *)

val flag_frequency : run -> (string * float) list
(** For each flag, the fraction of the run's top-decile (by fitness,
    lexicographic on the vector — the first axis dominates, so scalar
    runs rank exactly as before) vectors that enable it — the "which
    options matter" mining the paper uses the database for, sorted
    descending. *)
