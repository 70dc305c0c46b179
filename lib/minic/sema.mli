(** Semantic analysis for MinC programs.

    Checks performed:
    - every called function is defined (after stdlib linking) and called
      with the right arity; builtins ([print_int], [print_char], [input],
      [input_len]) have fixed arities;
    - every variable is declared before use (params, locals, globals);
    - array indexing only applies to array-typed names, scalar reads only
      to scalars;
    - no duplicate function, parameter, or global names;
    - a [main] function with zero parameters exists;
    - [break]/[continue] appear only inside loops or switches.  *)

exception Error of string

val link_stdlib : Ast.program -> Ast.program
(** Append the {!Stdlib_src} functions and globals that the program does
    not itself define. *)

val check : Ast.program -> unit
(** Validate a linked program.  Raises {!Error} with a descriptive message
    on the first violation. *)

val analyze : string -> Ast.program
(** [analyze source] = parse, link stdlib, check.  The entry point used by
    the compiler driver. *)
