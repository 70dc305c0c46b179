(* The serve daemon: tuning as a service.

   A long-running process accepts tuning jobs over a line protocol —
   one request per line, one single-line JSON object per response — and
   multiplexes them onto one shared [Session]: one worker pool, one
   compile memo, one size cache, one incremental snapshot store, and
   (when configured) one persistent on-disk [Store].  The second job
   over a corpus starts with the first job's artifacts warm; with a
   store, so does the first job after a restart.

   Requests:

     tune k=v ...      run one job; replies with its summary
     status            completed-job count, cache counters
     quit              stop the daemon

   Job parameters (all optional): bench=<corpus name> profile=gcc|llvm
   arch=x86-64|x86-32|arm|mips strategy=<registry name> budget=<max
   evaluations> seed=<int> objective=<axes, e.g. ncd,gadgets:0.5>.
   Blank lines and #-comments are ignored.

   Jobs run one at a time on the daemon thread (the pool parallelizes
   inside a job), and the daemon keeps nothing per job beyond a count:
   a job's summary is its response, so [status] has a fixed size
   however many jobs were served.  [handle_line] is the whole protocol,
   so tests drive a server in-process without sockets, and one transport
   loop over it backs both the stdin/stdout mode (CI smoke) and the
   Unix-socket accept loop.  Responses are built as [Util.Json] values. *)

type job = {
  id : int;
  bench : Corpus.benchmark;
  profile : Toolchain.Flags.profile;
  arch : Isa.Insn.arch;
  strategy : string;
  budget : int;
  seed : int;
  objective : Search.Objective.spec;
}

type t = {
  session : Session.t;
  mutable next_id : int;
  mutable completed : int;
}

let create ?(jobs = 1) ?store_dir ?store_max_bytes ?memo_max_bytes () =
  let store = Option.map (Store.create ?max_bytes:store_max_bytes) store_dir in
  {
    session = Session.create ~jobs ?memo_max_bytes ?store ();
    next_id = 1;
    completed = 0;
  }

let session t = t.session

let close t = Session.close t.session

let error_response msg = Util.Json.(Obj [ ("ok", Bool false); ("error", Str msg) ])

(* ------------------------------------------------------------------ *)
(* Job parsing                                                         *)
(* ------------------------------------------------------------------ *)

let parse_job t tokens =
  let bench = ref "462.libquantum" in
  let profile = ref "gcc" in
  let arch = ref "x86-64" in
  let strategy = ref "ga" in
  let budget = ref 500 in
  let seed = ref 1 in
  let objective = ref Search.Objective.default in
  let bad = ref None in
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> bad := Some ("malformed parameter " ^ tok ^ " (want key=value)")
      | Some i -> (
        let k = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        let int_param r =
          match int_of_string_opt v with
          | Some n -> r := n
          | None -> bad := Some (k ^ " wants an integer, got " ^ v)
        in
        match k with
        | "bench" -> bench := v
        | "profile" -> profile := v
        | "arch" -> arch := v
        | "strategy" -> strategy := v
        | "budget" | "iterations" -> int_param budget
        | "seed" -> int_param seed
        | "objective" | "objectives" -> (
          match Search.Objective.parse v with
          | spec -> objective := spec
          | exception Invalid_argument m -> bad := Some m)
        | _ -> bad := Some ("unknown parameter " ^ k)))
    tokens;
  match !bad with
  | Some msg -> Error msg
  | None -> (
    match Corpus.find !bench with
    | exception Not_found -> Error ("unknown benchmark " ^ !bench)
    | bench -> (
      match Toolchain.Flags.find !profile with
      | exception Not_found -> Error ("unknown profile " ^ !profile)
      | profile -> (
        match Isa.Insn.arch_of_name !arch with
        | exception Not_found -> Error ("unknown arch " ^ !arch)
        | arch ->
          if not (List.mem !strategy Search.all_names) then
            Error ("unknown strategy " ^ !strategy)
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            Ok
              {
                id;
                bench;
                profile;
                arch;
                strategy = !strategy;
                budget = max 1 !budget;
                seed = !seed;
                objective = !objective;
              }
          end)))

(* ------------------------------------------------------------------ *)
(* Running jobs                                                        *)
(* ------------------------------------------------------------------ *)

let counters_json counters =
  Util.Json.Obj (List.map (fun (k, n) -> (k, Util.Json.Int n)) counters)

let summary_fields id (r : Tuner.result) =
  let open Util.Json in
  let floats vs = List (Array.to_list (Array.map (fun v -> Float v) vs)) in
  let vector v = Str (Database.vector_to_string v) in
  [
    ("job", Int id);
    ("benchmark", Str r.benchmark);
    ("profile", Str r.profile_name);
    ("arch", Str (Isa.Insn.arch_name r.arch));
    ("strategy", Str r.strategy);
    ("objectives", Str (String.concat "," r.objectives));
    ("iterations", Int r.iterations);
    ("best_ncd", Float r.best_ncd);
    ("best_vector", vector r.best_vector);
    ("best_scores", floats r.best_scores);
    ("front_size", Int (List.length r.front));
    ( "front",
      List
        (List.map
           (fun (v, f) -> Obj [ ("vector", vector v); ("fitness", floats f) ])
           r.front) );
    ("functional_ok", Bool r.functional_ok);
    ("wall_seconds", Float r.wall_seconds);
    ("counters", counters_json r.counters);
  ]

let run_job t (j : job) =
  match
    (* every span a job records on the daemon thread carries its id *)
    Telemetry.with_ambient_attrs
      [ ("job", string_of_int j.id) ]
      (fun () ->
        Telemetry.with_span "serve.job"
          ~attrs:
            [
              ("bench", j.bench.Corpus.bname);
              ("profile", j.profile.Toolchain.Flags.profile_name);
              ("strategy", j.strategy);
            ]
          (fun () ->
            Tuner.tune ~arch:j.arch
              ~termination:
                { Search.default_termination with max_evaluations = j.budget }
              ~seed:j.seed
              ~strategy:(Search.of_name j.strategy)
              ~session:t.session ~objectives:j.objective ~profile:j.profile
              j.bench))
  with
  | exception e ->
    Telemetry.add_count "serve.job_failed";
    error_response
      (Printf.sprintf "job %d failed: %s" j.id (Printexc.to_string e))
  | r ->
    t.completed <- t.completed + 1;
    Telemetry.add_count "serve.job_done";
    Util.Json.Obj (("ok", Util.Json.Bool true) :: summary_fields j.id r)

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

let status_response t =
  let open Util.Json in
  let memo = Session.memo t.session in
  Obj
    [
      ("ok", Bool true);
      ("completed", Int t.completed);
      ("counters", counters_json (Session.counters t.session));
      ("memo", Obj [ ("entries", Int (Memo.length memo)); ("bytes", Int (Memo.bytes memo)) ]);
      ( "store",
        match Session.store t.session with
        | None -> Bool false
        | Some st ->
          Obj
            [
              ("entries", Int (Store.length st));
              ("bytes", Int (Store.bytes st));
              ("max_bytes", Int (Store.max_bytes st));
            ] );
      ("live_domains", Int (Parallel.Pool.live_domains ()));
    ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let handle_line t line =
  let open Util.Json in
  let responses, keep_going =
    match split_words line with
    | [] -> ([], true)
    | verb :: _ when String.length verb > 0 && verb.[0] = '#' -> ([], true)
    | "quit" :: _ -> ([ Obj [ ("ok", Bool true); ("bye", Str "bintuner") ] ], false)
    | "status" :: _ -> ([ status_response t ], true)
    | "tune" :: params -> (
      match parse_job t params with
      | Error msg -> ([ error_response msg ], true)
      | Ok j -> ([ run_job t j ], true))
    | verb :: _ -> ([ error_response ("unknown request " ^ verb) ], true)
  in
  (List.map to_string responses, keep_going)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* The longest request line the transports read; the rest of a longer
   line is discarded unread, so a client cannot grow the daemon's
   memory by streaming bytes without a newline. *)
let max_request_bytes = 64 * 1024

(* One request line: [Some (Ok line)], [Some (Error msg)] once an
   overlong line has been skipped to its end, or [None] at end of input.
   Like [input_line], a last line without its newline still counts. *)
let read_request ic =
  let b = Buffer.create 256 in
  let finish overlong =
    if overlong then
      Some
        (Error
           (Printf.sprintf "request line exceeds %d bytes" max_request_bytes))
    else Some (Ok (Buffer.contents b))
  in
  let rec go overlong =
    match input_char ic with
    | exception End_of_file ->
      if overlong || Buffer.length b > 0 then finish overlong else None
    | '\n' -> finish overlong
    | c when Buffer.length b < max_request_bytes ->
      Buffer.add_char b c;
      go overlong
    | _ -> go true
  in
  go false

(* The one transport loop: answer requests read from [ic] on [oc],
   flushing after each, until end of input or [quit]; [true] iff the
   client sent [quit]. *)
let serve_lines t ic oc =
  let rec loop () =
    match read_request ic with
    | None -> false
    | Some request ->
      let responses, keep_going =
        match request with
        | Ok line -> handle_line t line
        | Error msg -> ([ Util.Json.to_string (error_response msg) ], true)
      in
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        responses;
      flush oc;
      if keep_going then loop () else true
  in
  loop ()

let serve_channel t ic oc = ignore (serve_lines t ic oc : bool)

let serve_unix t path =
  (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let continue = ref true in
      while !continue do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* one connection at a time: jobs are sequential anyway, and a
           dropped client must not take the daemon down *)
        (try if serve_lines t ic oc then continue := false
         with Sys_error _ | Unix.Unix_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
