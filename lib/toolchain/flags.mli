(** Optimization flag universes for the two compiler profiles.

    Each profile ("gcc-10.2" and "llvm-11.0") defines its own set of
    boolean flags, the subsets enabled by the [-O1/-O2/-O3/-Os] presets
    (the [-O3] preset covers well under half of the universe, as the
    paper emphasizes), and the dependency / conflict constraints between
    flags (e.g. [-fpartial-inlining] has an effect only when
    [-finline-functions] is on; [-mstackrealign] conflicts with
    [-fomit-frame-pointer]).

    A *flag vector* is a bool array indexed like [flags].  BinTuner's
    genetic algorithm mutates flag vectors; {!Constraints} validates and
    repairs them with the SAT solver. *)

type flag = {
  name : string;
  apply : Config.t -> Config.t;
  description : string;
}

type constraint_decl =
  | Requires of string * string  (** first needs second *)
  | Conflicts of string * string

type profile = {
  profile_name : string;
  flags : flag array;
  constraints : constraint_decl list;
  preset_o1 : bool array;
  preset_o2 : bool array;
  preset_o3 : bool array;
  preset_os : bool array;
}

val gcc : profile

val llvm : profile

val profiles : profile list

val find : string -> profile
(** Look up by full name ("gcc-10.2" / "llvm-11.0") or short name
    ("gcc" / "llvm").  Raises [Not_found]. *)

val flag_index : profile -> string -> int
(** Index of a named flag.  Raises [Not_found]. *)

val resolve : profile -> bool array -> Config.t
(** Build the compiler configuration for a flag vector: start from the
    -O1 core (register promotion and cleanups always run when compiling
    with an explicit flag vector, as in a real compiler) and apply every
    enabled flag in order. *)

val preset : profile -> string -> bool array option
(** ["O1"], ["O2"], ["O3"], ["Os"] — the named presets as flag vectors.
    ["O0"] is not a flag vector (see {!Pipeline.compile_preset}). *)

val preset_names : string list
(** ["O0"; "O1"; "O2"; "O3"; "Os"]. *)
