(** MinC lint — stanc3-style "pedantic mode" over the -O0 lowering.

    Run on {i unoptimized} VIR so findings map one-to-one onto the source
    program: locals are still frame slots (slots [0..nparams-1] are the
    spilled parameters, higher slots follow declaration order) and no
    pass has folded away the conditions being judged.  Families:

    - [unused-local] / [unused-param]: a slot that is never loaded;
    - [unused-array]: a local array never loaded or stored;
    - [dead-store]: a slot store no path ever reads before the next
      store or function exit (slot liveness via {!Dataflow});
    - [always-true] / [always-false]: a branch condition whose interval
      excludes 0 (or is exactly 0);
    - [unreachable-switch-arm]: a case key outside the scrutinee's
      interval, or shadowed by an earlier identical key.

    Findings are advisory, not errors: the CLI [analyze] command layers
    an allowlist on top and only fails on fresh findings. *)

type finding = { func : string; category : string; detail : string }

val finding_to_string : finding -> string
(** ["func: [category] detail"] — the stable human rendering the
    allowlist format is keyed on. *)

val lint_program : Vir.Ir.program -> finding list
(** Findings of each function in block-layout order, functions in
    definition order — deterministic, suitable for golden tests. *)
