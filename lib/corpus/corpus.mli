(** The benchmark corpus — the reproduction's stand-in for the paper's
    dataset (SPECint CPU2006, SPECspeed 2017 Integer, Coreutils-8.30,
    OpenSSL-1.1.1, and the leaked IoT botnet sources).

    Every benchmark is a MinC program plus the test workloads used for
    functional-correctness checks ("BinTuner's outputs pass the test
    cases shipped with our dataset").  Programs are returned already
    analyzed (parsed, stdlib-linked, checked). *)

type suite = Spec2006 | Spec2017 | Coreutils | Openssl | Botnet

type benchmark = {
  bname : string;  (** e.g. "462.libquantum" *)
  suite : suite;
  source : string;  (** MinC source text *)
  workloads : int array list;  (** test inputs; at least two *)
}

val suite_name : suite -> string

val all : benchmark list
(** Every benchmark, paper order: CPU2006, CPU2017, Coreutils, OpenSSL,
    then the botnet programs. *)

val evaluation_set : benchmark list
(** The 21 programs of the paper's Figure 5 evaluation (everything except
    the botnet programs). *)

val find : string -> benchmark
(** Lookup by name.  Raises [Not_found]. *)

val program : benchmark -> Minic.Ast.program
(** Parse + link + check (cached). *)
