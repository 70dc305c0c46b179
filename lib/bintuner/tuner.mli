(** BinTuner — the paper's primary contribution (§4).

    The tuner searches a compiler profile's optimization-flag space with
    the genetic algorithm, maximizing the Normalized Compression Distance
    between each candidate binary's code section and the -O0 baseline
    ("we take O0's binary code as the baseline to calculate NCD during
    BinTuner's iterative compilation", §5.1).  Candidate vectors are
    validated / repaired against the profile's flag constraints, every
    compiled binary is recorded in an in-memory iteration database, and
    the final outcome is checked for functional correctness on the
    benchmark's test workloads in the VX virtual machine. *)

type entry = {
  vector : bool array;
  fitness : float array;
      (** objective vector in [objectives] order — a singleton [|ncd|]
          on the default 1-objective spec *)
}

type result = {
  benchmark : string;
  profile_name : string;
  strategy : string;  (** registry name of the search strategy that ran *)
  arch : Isa.Insn.arch;
  objectives : string list;
      (** axis names fixing the order of every fitness vector here;
          [["ncd"]] on the default spec *)
  best_vector : bool array;
      (** the highest-fitness vector — the paper's selection rule
          ("the iterations showing the highest fitness function score") *)
  best_binary : Isa.Binary.t;
  best_ncd : float;
      (** best {e scalarized} fitness reached during the search —
          exactly the best NCD on the default 1-objective spec *)
  best_scores : float array;  (** the best genome's raw objective vector *)
  front : (bool array * float array) list;
      (** the Pareto front of (flag vector, objective vector) pairs,
          fitness descending lexicographically; a singleton on
          1-objective runs *)
  refined_vector : bool array;
      (** the BinHunt-verified pick among the top-fitness candidates,
          strata samples and the preset seeds (see DESIGN.md §5) — the
          output used for the Figure 5 family of experiments *)
  refined_binary : Isa.Binary.t;
  preset_ncd : (string * float) list;
      (** NCD vs O0 of every -Ox preset, for reference *)
  iterations : int;  (** distinct fitness evaluations, as in Table 1 *)
  history : (int * float) list;  (** best-so-far NCD per iteration *)
  wall_seconds : float;  (** wall-clock (not CPU) duration of the run *)
  functional_ok : bool;
      (** both [best_binary] and [refined_binary] pass every test
          workload: {!Session.functional_check} on each, through the
          session's final-selection cache.  When the two binaries are equal the
          second verdict is a cache hit, and a warm repeat of a job the
          session has already checked runs no VM at all *)
  counters : (string * int) list;
      (** this call's cache traffic: the {!Session.counters} names, in
          their order, as deltas over the call (from before its O0
          baseline compile through final selection, the preset NCDs
          and the functional check), followed by
          [objective.memo.hit] / [objective.memo.miss] summed over the
          call's {!Search.Objective} evaluator (0 on the default spec,
          which caches in the size cache instead).  [memo.hit +
          memo.miss] is the number of compile requests the run made, a
          quantity independent of memoization.  The size-cache and
          incremental hit/miss split, and the [check.*] split of the
          BinHunt scores, can depend on scheduling under racing workers, so those counters are observational and left
          out of the determinism sentinel and the j-differential. *)
  database : entry list;  (** every (vector, fitness vector) evaluated *)
}

val counter : result -> string -> int
(** [counter r name] — the value of one of [r.counters], e.g.
    [counter r "memo.hit"].  Raises [Invalid_argument] on a name not in
    the list. *)

val ncd_of_binaries : Isa.Binary.t -> Isa.Binary.t -> float
(** NCD between two binaries' raw code sections (the paper's formula,
    verbatim). *)

val code_stream : Isa.Binary.t -> string
(** The canonical projection the fitness compresses: one byte per
    instruction of the code section (its opcode class).  The paper
    applies LZMA to the code section's raw bytes; the VX encoding carries
    far less incidental byte-level redundancy than x86 machine code, so
    compressing the raw bytes saturates NCD near 1.0 for every optimized
    build.  The opcode-class projection restores LZMA-grade structural
    signal while keeping the NCD-over-code-section mechanism intact
    (substitution documented in DESIGN.md). *)

val fitness_of_binaries : Isa.Binary.t -> Isa.Binary.t -> float
(** NCD over {!code_stream} projections — BinTuner's fitness. *)

val tune :
  ?arch:Isa.Insn.arch ->
  ?termination:Search.termination ->
  ?seed:int ->
  ?strategy:Search.strategy ->
  ?pool:Parallel.Pool.t ->
  ?session:Session.t ->
  ?incremental:bool ->
  ?objectives:Search.Objective.spec ->
  profile:Toolchain.Flags.profile ->
  Corpus.benchmark ->
  result
(** Run the full auto-tuning loop on one benchmark.  Deterministic for a
    fixed [seed] (default 1): the result is bit-identical whatever [pool]
    is passed (each generation is fitness-scored as one ordered
    [Pool.map] batch; all random draws stay in the sequential part of the
    loop) and whatever the session's memo budget (compilation is pure,
    the memo only skips repeats — its traffic is reported in the
    [memo.hit] / [memo.miss] counters).  Both properties are enforced by
    the differential test suite.

    [strategy] selects the search backend (default: the GA with
    {!Search.Genetic.default_params}; build one with
    {!Search.Genetic.strategy} to parameterize the GA).  The call runs
    on its session's pool.  [pool] only seeds a throwaway session; when
    it is omitted too, that session's pool has size 1 and is shut down on
    every exit, normal or exceptional.  Passing both [pool] and
    [session] raises [Invalid_argument].

    [incremental] (default on) shares one {!Incremental} pass-prefix
    snapshot store across every compile of the run, so candidates
    resume compilation from the longest pipeline prefix an earlier
    candidate already produced.  Lossless: results are bit-identical
    with it on or off (the differential oracle pins this); only the
    [incr.*] counters and wall-clock change.

    [session] plugs the call into a long-lived {!Session}: the session's
    pool, compile memo, size cache, incremental store and
    (when attached) persistent artifact store serve the call, so
    successive jobs over the same corpus hit each other's entries.
    Without one, the call runs on a throwaway session created with
    [pool] and closed on return — one-shot tuning and serving are one
    code path.  Lossless like every cache here — a warm-session result is
    bit-identical to a cold one-shot result (the serve differential test
    pins this); [counters] are per-call {e deltas}, so they mean the same
    thing either way.  A session created with [~memo_max_bytes:0] runs
    every compile request through the pipeline.

    The fitness compresses at {!Compress.Lz.default_level}, which the
    CLI and bench driver's [--lz-level] set before tuning.  A session
    measures at the level current when it was created, so a call on a
    session created at another level raises [Invalid_argument].

    [objectives] selects the fitness axes and their scalarization
    weights ({!Search.Objective.parse} grammar: ["ncd,gadgets:0.5"]).
    Every candidate goes through one path: compile, then evaluate.  The
    default — NCD alone at unit weight — evaluates the NCD against the
    O0 baseline and nothing else, bit-identically to the historical
    scalar tuner.  Any other spec evaluates every axis on the binary
    through per-axis memos (the same NCD for [ncd]; one shared binsight
    inspection for [gadgets]/[size]; the provenance adversary is trained
    on this profile's presets for [evasion]), hands the engine the
    weighted-sum scalarization, and returns the non-dominated [front]
    alongside the scalar best. *)

val flags_enabled : Toolchain.Flags.profile -> bool array -> string list
(** Names of the flags a vector enables. *)
