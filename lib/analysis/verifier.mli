(** LLVM-verifier-style structural well-formedness checks over [Vir.Ir].

    The pass pipeline's whole claim — NCD/BinHunt differences measure
    code {i shape}, never {i breakage} — rests on every flag-gated pass
    preserving semantics.  End-to-end VM differential tests catch a
    miscompile but localize nothing in a 25-pass pipeline; running
    {!verify_func} between passes turns "some pass broke openssl at -O3"
    into "pass licm left a branch to a deleted block".

    Checks, per function:
    - block list is non-empty, labels unique and within
      [0, next_label);
    - every terminator target names an existing block;
    - successor and predecessor views of the CFG agree edge for edge;
    - [Call]/[Tail_call] name a function of the module with matching
      arity;
    - slot indices within [0, nslots); registers within
      [0, next_reg) / [0, next_vreg);
    - memory operations name a module global or a function-local array;
    - def-before-use as a taint analysis: maybe-undefined scalar reads
      are errors only when they reach an observable sink (memory, I/O,
      calls, addresses, select conditions, control flow, return values),
      which licenses if-conversion's deliberate speculation; vector
      registers keep the strict definitely-assigned-on-all-paths rule. *)

type error = { check : string; func : string; detail : string }

val errors_to_string : error list -> string
(** ["func: [check] detail"] per error, ["; "]-joined, for exception
    payloads and logs. *)

val verify_func : Vir.Ir.program -> Vir.Ir.func -> error list
(** All violations in one function (empty = well-formed).  The program
    is consulted for call targets and globals. *)

val verify_program : Vir.Ir.program -> error list
(** {!verify_func} over every function, plus module-level checks
    (duplicate function names, duplicate global names). *)
