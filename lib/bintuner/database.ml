type run = {
  benchmark : string;
  profile : string;
  arch : string;
  flag_names : string list;
  objectives : string list;
  entries : (bool array * float array) list;
  best : bool array;
}

let of_result (r : Tuner.result) (p : Toolchain.Flags.profile) =
  {
    benchmark = r.benchmark;
    profile = r.profile_name;
    arch = Isa.Insn.arch_name r.arch;
    flag_names =
      Array.to_list (Array.map (fun f -> f.Toolchain.Flags.name) p.flags);
    objectives = r.objectives;
    entries = List.map (fun e -> (e.Tuner.vector, e.Tuner.fitness)) r.database;
    best = r.best_vector;
  }

let vector_to_string v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let vector_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> failwith (Printf.sprintf "Database: bad vector bit %C" c))

(* The on-disk format is space- and comma-delimited, so names containing
   those separators (or newlines) are percent-escaped on save and decoded
   on load — a benchmark called "my bench" must round-trip, not corrupt
   the parse of every later field. *)
let escape_name s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' | ' ' | ',' | '\n' | '\r' ->
        Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_name s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> failwith (Printf.sprintf "Database: bad escape digit %C" c)
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n ->
      Buffer.add_char b (Char.chr ((16 * hex s.[!i + 1]) + hex s.[!i + 2]));
      i := !i + 2
    | '%' -> failwith "Database: truncated escape sequence"
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

(* Fitness values round-trip bit-exactly: %h is OCaml's lossless hex
   float notation, and [float_of_string] parses it alongside the %.6f
   decimals older database files carry (those stay what they were — six
   digits was already all the old writer kept).  A vector fitness is one
   [%h] per axis, space-separated, in [objectives] order. *)
let fitness_to_string f = Printf.sprintf "%h" f

(* Legacy scalar files predate the [obj] line and carry exactly one
   fitness per entry: they load as this single-axis spec. *)
let legacy_objectives = [ "ncd" ]

let test_write_failure : int option ref = ref None
(* Test-only crash injection: [Some n] makes [save] raise after emitting
   [n] lines, simulating a writer dying mid-stream.  The atomic-save
   regression test uses it to prove a crashed save never harms the
   existing database file. *)

let emit write runs =
  List.iter
    (fun r ->
      write
        (Printf.sprintf "run %s %s %s\n" (escape_name r.benchmark)
           (escape_name r.profile) (escape_name r.arch));
      write
        (Printf.sprintf "flags %s\n"
           (String.concat "," (List.map escape_name r.flag_names)));
      write
        (Printf.sprintf "obj %s\n"
           (String.concat "," (List.map escape_name r.objectives)));
      write (Printf.sprintf "best %s\n" (vector_to_string r.best));
      List.iter
        (fun (v, f) ->
          write
            (Printf.sprintf "e %s %s\n" (vector_to_string v)
               (String.concat " "
                  (List.map fitness_to_string (Array.to_list f)))))
        r.entries;
      write "end\n")
    runs

(* Crash-safe: the new contents are written to a sibling temp file and
   renamed into place only once complete, so a writer dying mid-save (or
   a full disk) leaves any existing database byte-identical instead of
   truncated.  rename(2) within one directory is atomic on POSIX. *)
let save path runs =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  let committed = ref false in
  let emitted = ref 0 in
  let write s =
    (match !test_write_failure with
    | Some n when !emitted >= n -> failwith "Database: injected write failure"
    | _ -> ());
    incr emitted;
    output_string oc s
  in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      emit write runs;
      close_out oc;
      Sys.rename tmp path;
      committed := true)

let load ?objectives:expected path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let runs = ref [] in
      let current = ref None in
      (try
         while true do
           let line = input_line ic in
           match String.split_on_char ' ' line with
           | [ "run"; benchmark; profile; arch ] ->
             current :=
               Some
                 {
                   benchmark = unescape_name benchmark;
                   profile = unescape_name profile;
                   arch = unescape_name arch;
                   flag_names = [];
                   objectives = [];
                   entries = [];
                   best = [||];
                 }
           | [ "flags"; names ] -> (
             match !current with
             | Some r ->
               current :=
                 Some
                   {
                     r with
                     flag_names =
                       (* "flags " with nothing after it is the empty
                          universe, not one empty-named flag *)
                       (if names = "" then []
                        else
                          List.map unescape_name
                            (String.split_on_char ',' names));
                   }
             | None -> failwith "Database: flags before run")
           | [ "obj"; names ] -> (
             match !current with
             | Some r ->
               if names = "" then failwith "Database: empty objective list";
               current :=
                 Some
                   {
                     r with
                     objectives =
                       List.map unescape_name (String.split_on_char ',' names);
                   }
             | None -> failwith "Database: obj before run")
           | [ "best"; v ] -> (
             match !current with
             | Some r -> current := Some { r with best = vector_of_string v }
             | None -> failwith "Database: best before run")
           | "e" :: v :: (_ :: _ as fs) -> (
             match !current with
             | Some r ->
               current :=
                 Some
                   {
                     r with
                     entries =
                       ( vector_of_string v,
                         Array.of_list (List.map float_of_string fs) )
                       :: r.entries;
                   }
             | None -> failwith "Database: entry before run")
           | [ "end" ] -> (
             match !current with
             | Some r ->
               (* a vector whose length disagrees with the flag universe
                  would silently mis-index flags downstream: reject here *)
               let nflags = List.length r.flag_names in
               let check_len what v =
                 if Array.length v <> nflags then
                   failwith
                     (Printf.sprintf
                        "Database: %s vector length %d <> %d flags in run %s/%s"
                        what (Array.length v) nflags r.benchmark r.profile)
               in
               check_len "best" r.best;
               List.iter (fun (v, _) -> check_len "entry" v) r.entries;
               (* a pre-vector file has no [obj] line: it is a scalar-NCD
                  run and must carry exactly one fitness per entry *)
               let r =
                 if r.objectives <> [] then r
                 else begin
                   List.iter
                     (fun (_, f) ->
                       if Array.length f <> 1 then
                         failwith
                           (Printf.sprintf
                              "Database: run %s/%s has no obj line but a \
                               %d-axis fitness entry — file is corrupt"
                              r.benchmark r.profile (Array.length f)))
                     r.entries;
                   { r with objectives = legacy_objectives }
                 end
               in
               (* every fitness vector must agree with the declared axes:
                  a silent arity mismatch would mis-scalarize on resume *)
               let arity = List.length r.objectives in
               List.iter
                 (fun (_, f) ->
                   if Array.length f <> arity then
                     failwith
                       (Printf.sprintf
                          "Database: entry fitness arity %d <> %d objectives \
                           (%s) in run %s/%s"
                          (Array.length f) arity
                          (String.concat "," r.objectives)
                          r.benchmark r.profile))
                 r.entries;
               (* the caller tuning against a specific objective spec must
                  not silently mix vectors that mean different things *)
               (match expected with
               | Some want when want <> r.objectives ->
                 failwith
                   (Printf.sprintf
                      "Database: run %s/%s was tuned for objectives [%s] but \
                       [%s] requested — refusing to mix fitness vectors of \
                       different meaning (re-tune or point at a different \
                       database file)"
                      r.benchmark r.profile
                      (String.concat "," r.objectives)
                      (String.concat "," want))
               | _ -> ());
               runs := { r with entries = List.rev r.entries } :: !runs;
               current := None
             | None -> failwith "Database: end before run")
           | [ "" ] -> ()
           | _ -> failwith ("Database: bad line " ^ line)
         done
       with End_of_file -> ());
      List.rev !runs)

let flag_frequency r =
  let ranked = List.sort (fun (_, a) (_, b) -> compare b a) r.entries in
  let n = List.length ranked in
  let top = max 1 (n / 10) in
  let picked = List.filteri (fun i _ -> i < top) ranked in
  let counts = Array.make (List.length r.flag_names) 0 in
  List.iter
    (fun (v, _) ->
      Array.iteri (fun i on -> if on then counts.(i) <- counts.(i) + 1) v)
    picked;
  List.mapi
    (fun i name -> (name, float_of_int counts.(i) /. float_of_int top))
    r.flag_names
  |> List.sort (fun (_, a) (_, b) -> compare b a)
