(** Minimal deterministic JSON emitter.

    Rendering is a pure function of the value — object fields keep the
    order they were built with, floats render as ["%.1f"] for exact
    small integers and round-tripping ["%.17g"] otherwise — so emitted
    reports can be golden-digest tested.  Emission only; consumers parse
    with jq/python. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering: no whitespace outside strings. *)

val to_channel : out_channel -> t -> unit
(** {!to_string} plus a trailing newline. *)
