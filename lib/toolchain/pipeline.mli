(** The compiler driver: MinC source/AST + configuration → VX binary.

    This is BinTuner's "Compiler Interface" (§4.1): it glues the frontend,
    the flag-gated pass pipeline and the code generator, and is what the
    genetic algorithm invokes once per individual per generation.

    The pipeline is an explicit step list — AST passes, lowering, each
    enabled IR pass over all functions, the program-level function
    reorder — and every step boundary can be snapshotted into an injected
    {!snapshot_store}.  Snapshots are keyed by a hash chain seeded with
    (program digest, profile, arch) and extended with one parameterized
    step key per step, so a later compile whose resolved configuration
    shares a step prefix resumes from the longest prefix the store still
    holds instead of recompiling from scratch.  The store is a plain
    record of closures: the pipeline stays agnostic of the cache policy
    (see [Bintuner.Incremental] for the LRU implementation the tuner
    injects).  Snapshotting is lossless — a compile through a store, warm
    or cold, emits the same bytes as a from-scratch compile. *)

val verify_default : bool ref
(** The one verification switch: when true, every compile and
    {!apply_passes} run the IR verifier after lowering and after each IR
    pass (CLI [--verify-ir] and [verify], bench [-verify]).  Off by
    default — verification costs a dataflow solve per pass per
    function. *)

exception Verification_failed of string
(** Raised by the verify gate; the message names the offending pass, the
    function, and the profile/arch/flag-vector context. *)

val test_break : (string * (Vir.Ir.func -> unit)) option ref
(** Test-only hook: [Some (pass, mutate)] applies [mutate] to every
    function right after [pass] runs on it, so tests can plant a
    miscompile and assert the verifier attributes it to [pass]. *)

type snapshot_store = {
  find : string -> string option;
      (** Look a prefix key up; [None] on a cold or evicted key.  Must be
          safe to call from any worker domain. *)
  store : string -> string -> unit;
      (** Publish the snapshot for a key.  Values are deterministic per
          key, so keep-first semantics under racing writers are exact. *)
}
(** The incremental-compilation seam: how the pipeline reads and writes
    stage snapshots without depending on any cache implementation. *)

val cache_seed : profile:string -> arch:Isa.Insn.arch -> Minic.Ast.program -> string
(** The key-chain seed for one (program, profile, arch) context.  Two
    contexts differing in any component get disjoint key spaces — the
    guard against the cross-profile/cross-arch staleness hazard, pinned
    by the regression tests. *)

val apply_passes : Config.t -> Minic.Ast.program -> Vir.Ir.program
(** Run the AST passes, lowering, and IR passes dictated by the
    configuration and return the optimized IR (exposed for tests and the
    bench's IR-level experiments), verified after every pass when
    {!verify_default} is set. *)

val compile_flags :
  Flags.profile ->
  ?arch:Isa.Insn.arch ->
  ?snapshot:snapshot_store ->
  bool array ->
  Minic.Ast.program ->
  Isa.Binary.t
(** Compile a checked program (see {!Minic.Sema.analyze}) under an
    explicit flag vector of the given profile (the GA's entry point).
    Default arch x86-64.  With [snapshot], the compile resumes from the
    longest cached step prefix, and the emitted binary itself is cached
    under a final key extending the IR chain with the codegen options and
    labels — a full hit skips the pipeline entirely.  When {!verify_default}
    is set the binary-level entry is bypassed (the verifier must see IR),
    but verified IR-stage snapshots still shorten the pipeline. *)

val compile_preset :
  Flags.profile ->
  ?arch:Isa.Insn.arch ->
  ?snapshot:snapshot_store ->
  ?boundaries:(string, int list) Hashtbl.t ->
  string ->
  Minic.Ast.program ->
  Isa.Binary.t
(** Compile at a named preset: "O0", "O1", "O2", "O3" or "Os", with
    [snapshot] as in {!compile_flags}.  With [boundaries], codegen always
    runs for real (the binary-level cache entry is bypassed) and the
    table maps each function to its ground-truth instruction-start
    offsets — see {!Codegen.Emit.compile_program}.  Raises
    [Invalid_argument] on an unknown preset name. *)
