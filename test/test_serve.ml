(* Tests for the serve daemon: the line protocol, cross-job cache
   sharing through the shared session, the warm-store-vs-cold-one-shot
   differential (caching must be lossless), and crash recovery from a
   torn store entry.  Everything drives [Server.handle_line] in-process —
   the socket/stdin transports share one thin loop over it, exercised
   through [Server.serve_channel] by the overlong-line case.  The daemon
   keeps nothing per job, so every check on a job reads its JSON
   response. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "bintuner-serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let budget = 40

let job_line =
  Printf.sprintf
    "tune bench=462.libquantum profile=gcc arch=x86-64 strategy=ga budget=%d \
     seed=1"
    budget

(* A reader for the JSON that [Util.Json.to_string] renders, enough for
   a job response (its strings are names and flag vectors, so it carries
   no escapes).  Floats print round-trip exact, so a parsed [best_ncd]
   is the job's own double, bit for bit. *)
let parse_json s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let expect c =
    if peek () <> c then
      Alcotest.fail (Printf.sprintf "JSON: expected %C at %d in %s" c !pos s);
    incr pos
  in
  let rec sequence close item =
    if peek () = close then (incr pos; [])
    else
      let x = item () in
      if peek () = ',' then (incr pos; x :: sequence close item)
      else (expect close; [ x ])
  in
  let string () =
    expect '"';
    let e = String.index_from s !pos '"' in
    let body = String.sub s !pos (e - !pos) in
    if String.contains body '\\' then Alcotest.fail ("JSON: escape in " ^ s);
    pos := e + 1;
    body
  in
  let rec value () =
    let open Util.Json in
    let literal word v =
      pos := !pos + String.length word;
      v
    in
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (sequence '}' (fun () ->
             let k = string () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (sequence ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while String.contains "+-.0123456789eE" (peek ()) do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if String.exists (fun c -> String.contains ".eE" c) tok then
        Float (float_of_string tok)
      else Int (int_of_string tok)
  in
  let v = value () in
  if !pos <> String.length s then Alcotest.fail ("JSON: trailing text in " ^ s);
  v

(* one field of an object; counter names contain dots, so nested
   fields are read one level at a time *)
let field json key =
  match json with
  | Util.Json.Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> Alcotest.fail ("JSON: no field " ^ key))
  | _ -> Alcotest.fail ("JSON: not an object, looking for " ^ key)

let int_of = function Util.Json.Int n -> n | _ -> Alcotest.fail "JSON: not an int"
let str_of = function Util.Json.Str s -> s | _ -> Alcotest.fail "JSON: not a string"

let float_of = function Util.Json.Float v -> v | _ -> Alcotest.fail "JSON: not a float"

let floats_of = function
  | Util.Json.List vs -> Array.of_list (List.map float_of vs)
  | _ -> Alcotest.fail "JSON: not a list"

(* one counter of a job response *)
let counter job name = int_of (field (field job "counters") name)

(* one request, expecting exactly one response *)
let request srv line =
  match Bintuner.Server.handle_line srv line with
  | [ r ], keep_going -> (r, keep_going)
  | rs, _ ->
    Alcotest.fail
      (Printf.sprintf "expected 1 response to %S, got %d" line (List.length rs))

(* one job request, expecting a successful summary, parsed *)
let run_job srv line =
  let r, _ = request srv line in
  let job = parse_json r in
  if field job "ok" <> Util.Json.Bool true then Alcotest.fail ("job failed: " ^ r);
  job

let test_serve_protocol () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      Alcotest.(check bool) "blank line ignored" true
        (Bintuner.Server.handle_line srv "" = ([], true));
      Alcotest.(check bool) "comment ignored" true
        (Bintuner.Server.handle_line srv "# warmup script" = ([], true));
      let status, _ = request srv "status" in
      Alcotest.(check bool) "fresh status ok" true
        (contains status "\"ok\":true" && contains status "\"completed\":0");
      Alcotest.(check bool) "no store configured" true
        (contains status "\"store\":false");
      let r, _ = request srv "tune bench=no-such-benchmark" in
      Alcotest.(check bool) "unknown bench rejected" true
        (contains r "\"ok\":false" && contains r "no-such-benchmark");
      let r, _ = request srv "tune strategy=psychic" in
      Alcotest.(check bool) "unknown strategy rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "tune budget=lots" in
      Alcotest.(check bool) "non-integer budget rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "tune profile=icc" in
      Alcotest.(check string) "unknown profile rejected"
        "{\"ok\":false,\"error\":\"unknown profile icc\"}" r;
      let r, _ = request srv "tune arch=sparc" in
      Alcotest.(check string) "unknown arch rejected"
        "{\"ok\":false,\"error\":\"unknown arch sparc\"}" r;
      let r, _ = request srv "frobnicate" in
      Alcotest.(check bool) "unknown verb rejected" true
        (contains r "\"ok\":false");
      (* a rejected tune runs nothing *)
      let status, _ = request srv "status" in
      Alcotest.(check bool) "nothing completed" true
        (contains status "\"completed\":0");
      let r, keep_going = request srv "quit" in
      Alcotest.(check bool) "quit stops the loop" false keep_going;
      Alcotest.(check bool) "quit is polite" true (contains r "\"ok\":true"))

(* [tune] is the only job verb and a job's parameters are exactly the
   documented ones: the retired queue verbs and the per-job
   compression level are refused like any unknown request, and run
   nothing. *)
let test_serve_retired_requests () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      List.iter
        (fun (line, error) ->
          let r, keep_going = request srv line in
          Alcotest.(check string) line
            (Printf.sprintf "{\"ok\":false,\"error\":\"%s\"}" error)
            r;
          Alcotest.(check bool) (line ^ " keeps serving") true keep_going)
        [
          ("submit bench=462.libquantum budget=5", "unknown request submit");
          ("run", "unknown request run");
          ("tune lz-level=greedy", "unknown parameter lz-level");
          ("tune lz_level=greedy", "unknown parameter lz_level");
        ];
      let status, _ = request srv "status" in
      Alcotest.(check bool) "nothing ran" true
        (contains status "\"completed\":0"))

(* The daemon keeps no per-job state: [status] has the same keys after
   three jobs as after one, and its size does not grow with the jobs
   served (only counter values change, by a few digits).  Job ids count
   accepted jobs; a rejected request takes none. *)
let test_serve_status_fixed_size () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      ignore (request srv "tune bench=no-such-benchmark");
      let job seed =
        run_job srv
          (Printf.sprintf "tune bench=462.libquantum budget=10 seed=%d" seed)
      in
      let keys status =
        match parse_json status with
        | Util.Json.Obj kvs -> List.map fst kvs
        | _ -> Alcotest.fail "status is not an object"
      in
      Alcotest.(check int) "first job id" 1 (int_of (field (job 1) "job"));
      let status1, _ = request srv "status" in
      Alcotest.(check int) "second job id" 2 (int_of (field (job 2) "job"));
      Alcotest.(check int) "third job id" 3 (int_of (field (job 3) "job"));
      let status3, _ = request srv "status" in
      Alcotest.(check (list string)) "status keys"
        [ "ok"; "completed"; "counters"; "memo"; "store"; "live_domains" ]
        (keys status3);
      Alcotest.(check (list string)) "same keys after 1 and 3 jobs"
        (keys status1) (keys status3);
      Alcotest.(check bool) "status counts the jobs" true
        (contains status3 "\"completed\":3");
      Alcotest.(check bool)
        (Printf.sprintf "status size after 3 jobs (%d B) within 64 B of after 1 (%d B)"
           (String.length status3) (String.length status1))
        true
        (abs (String.length status3 - String.length status1) <= 64))

(* The [objective] job parameter: a malformed spec is rejected without
   killing the daemon, and a 2-axis job's summary carries the axis
   names, the best score vector and a non-dominated front. *)
let test_serve_objective_parameter () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      let r, _ = request srv "tune bench=429.mcf objective=bogus" in
      Alcotest.(check bool) "unknown objective rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "tune bench=429.mcf objective=ncd,ncd" in
      Alcotest.(check bool) "duplicate axis rejected" true
        (contains r "\"ok\":false");
      let status, _ = request srv "status" in
      Alcotest.(check bool) "nothing run" true
        (contains status "\"completed\":0");
      let r, _ =
        request srv "tune bench=429.mcf budget=25 objective=ncd,gadgets"
      in
      Alcotest.(check bool) "2-axis job ok" true (contains r "\"ok\":true");
      Alcotest.(check bool) "summary names the axes" true
        (contains r "\"objectives\":\"ncd,gadgets\"");
      Alcotest.(check bool) "summary carries the front" true
        (contains r "\"front_size\":" && contains r "\"best_scores\":");
      let j = parse_json r in
      Alcotest.(check (list string))
        "job summary axes" [ "ncd"; "gadgets" ]
        (String.split_on_char ',' (str_of (field j "objectives")));
      Alcotest.(check int) "score arity" 2
        (Array.length (floats_of (field j "best_scores")));
      let front =
        match field j "front" with
        | Util.Json.List points ->
          List.map
            (fun p ->
              (str_of (field p "vector"), floats_of (field p "fitness")))
            points
        | _ -> Alcotest.fail "front is not a list"
      in
      Alcotest.(check bool) "front non-empty and non-dominated" true
        (front <> [] && Search.Pareto.is_non_dominated front);
      Alcotest.(check bool) "objective memos saw traffic" true
        (counter j "objective.memo.hit" + counter j "objective.memo.miss" > 0);
      Alcotest.(check bool) "job response carries objective counters" true
        (contains r "\"objective.memo.hit\":"
        && contains r "\"objective.memo.miss\":"))

(* Two sequential jobs on one daemon: the second must be served largely
   from the first's shared caches — memo hits with a default session,
   persistent-store hits once the memo is too small to shadow the store. *)
let test_serve_cross_job_sharing () =
  with_temp_dir (fun dir ->
      let srv = Bintuner.Server.create ~store_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Bintuner.Server.close srv)
        (fun () ->
          let r1, _ = request srv job_line in
          let r2, _ = request srv job_line in
          Alcotest.(check bool) "both jobs ok" true
            (contains r1 "\"ok\":true" && contains r2 "\"ok\":true");
          let j1 = parse_json r1 and j2 = parse_json r2 in
          Alcotest.(check bool) "job 1 ran cold" true
            (counter j1 "memo.miss" > 0);
          (* the shared memo serves job 2 the binaries job 1 compiled *)
          Alcotest.(check bool) "job 2 hits the shared memo" true
            (counter j2 "memo.hit" > 0);
          Alcotest.(check bool) "job 2 compiles less than job 1" true
            (counter j2 "memo.miss" < counter j1 "memo.miss");
          Alcotest.(check string) "same best vector"
            (str_of (field j1 "best_vector"))
            (str_of (field j2 "best_vector"))))

(* A warm repeat on one daemon is served its functional verdicts and
   BinHunt scores from the session's final-selection cache: it runs
   neither the VM nor BinHunt, and its result is job 1's. *)
let test_serve_warm_repeat_checks_nothing () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      let j1 = run_job srv job_line in
      let j2 = run_job srv job_line in
      Alcotest.(check bool) "job 1 checked" true (counter j1 "check.miss" > 0);
      Alcotest.(check int) "job 2: no check misses" 0 (counter j2 "check.miss");
      Alcotest.(check bool) "job 2: check hits" true (counter j2 "check.hit" > 0);
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " unchanged") true
            (field j1 key = field j2 key))
        [ "best_vector"; "best_ncd"; "functional_ok" ])

(* The acceptance differential across a restart: job 1 fills the
   persistent store and its daemon closes, then a fresh daemon over the
   same directory runs job 2.  Job 2 must be served entirely from disk
   (store hits, zero store misses) with a best_vector bit-identical to a
   cold one-shot [Tuner.tune].  The memo is capped to one byte so it can
   never shadow the store — every compile request of job 2 falls through
   to disk.  One-daemon sharing is test_serve_cross_job_sharing's. *)
let test_serve_warm_store_matches_cold_tune () =
  with_temp_dir (fun dir ->
      let run_daemon () =
        let srv = Bintuner.Server.create ~store_dir:dir ~memo_max_bytes:1 () in
        Fun.protect
          ~finally:(fun () -> Bintuner.Server.close srv)
          (fun () -> run_job srv job_line)
      in
      let j1 = run_daemon () in
      let j2 = run_daemon () in
      let cold =
        Bintuner.Tuner.tune
          ~termination:
            { Search.default_termination with max_evaluations = budget }
          ~strategy:(Search.of_name "ga")
          ~profile:Toolchain.Flags.gcc
          (Corpus.find "462.libquantum")
      in
      Alcotest.(check bool) "job 1 populated the store" true
        (counter j1 "store.miss" > 0);
      Alcotest.(check bool) "job 2 reports persistent-store hits" true
        (counter j2 "store.hit" > 0);
      Alcotest.(check int) "job 2 misses the restarted store nowhere" 0
        (counter j2 "store.miss");
      Alcotest.(check string) "job 2 best vector = cold one-shot tune"
        (Bintuner.Database.vector_to_string cold.Bintuner.Tuner.best_vector)
        (str_of (field j2 "best_vector"));
      Alcotest.(check bool) "job 2 best ncd bit-identical to cold" true
        (Int64.bits_of_float (float_of (field j2 "best_ncd"))
        = Int64.bits_of_float cold.Bintuner.Tuner.best_ncd);
      Alcotest.(check int) "same iteration count" cold.iterations
        (int_of (field j2 "iterations")))

(* Crash recovery: a store directory with a torn shard entry must load,
   quarantine the entry on first touch, recompute, and finish the job —
   never crash the daemon or change the answer. *)
let test_serve_recovers_from_torn_store () =
  with_temp_dir (fun dir ->
      let best1 =
        let srv = Bintuner.Server.create ~store_dir:dir ~memo_max_bytes:1 () in
        Fun.protect
          ~finally:(fun () -> Bintuner.Server.close srv)
          (fun () -> str_of (field (run_job srv job_line) "best_vector"))
      in
      (* tear the first shard entry we can find *)
      let torn = ref false in
      Array.iter
        (fun shard ->
          if (not !torn) && String.length shard = 2 then begin
            let sdir = Filename.concat dir shard in
            match Sys.readdir sdir with
            | [||] -> ()
            | names ->
              let path = Filename.concat sdir names.(0) in
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let half = really_input_string ic (n / 2) in
              close_in ic;
              let oc = open_out_bin path in
              output_string oc half;
              close_out oc;
              torn := true
          end)
        (Sys.readdir dir);
      Alcotest.(check bool) "found an entry to tear" true !torn;
      let srv = Bintuner.Server.create ~store_dir:dir ~memo_max_bytes:1 () in
      Fun.protect
        ~finally:(fun () -> Bintuner.Server.close srv)
        (fun () ->
          let r, _ = request srv job_line in
          Alcotest.(check bool) "daemon survives the torn entry" true
            (contains r "\"ok\":true");
          Alcotest.(check string) "answer unchanged after recovery" best1
            (str_of (field (parse_json r) "best_vector"));
          (* status reports the quarantine *)
          let status, _ = request srv "status" in
          Alcotest.(check bool) "status shows store.quarantine > 0" true
            (contains status "\"store.quarantine\":"
            && not (contains status "\"store.quarantine\":0"))))

(* Regression: a job's counter deltas start before its O0 baseline
   compile, so on one daemon the session totals [status] reports are
   exactly the sum of the jobs' counters, name by name — the prefix
   store's misses included. *)
let test_serve_status_counters_sum_jobs () =
  with_temp_dir (fun dir ->
      let srv = Bintuner.Server.create ~store_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Bintuner.Server.close srv)
        (fun () ->
          let jobs =
            [
              run_job srv job_line;
              run_job srv
                "tune bench=429.mcf profile=llvm strategy=hill budget=20";
            ]
          in
          let expected =
            List.map
              (fun (name, _) ->
                Printf.sprintf "\"%s\":%d" name
                  (List.fold_left (fun acc j -> acc + counter j name) 0 jobs))
              (Bintuner.Session.counters (Bintuner.Server.session srv))
          in
          let status, _ = request srv "status" in
          Alcotest.(check bool) "two jobs completed" true
            (contains status "\"completed\":2");
          Alcotest.(check bool) "incremental store saw misses" true
            (List.exists (fun j -> counter j "incr.miss" > 0) jobs);
          Alcotest.(check bool)
            ("status counters are the jobs' sums: "
            ^ String.concat "," expected)
            true
            (contains status
               ("\"counters\":{" ^ String.concat "," expected ^ "}"))))

(* An overlong request line is refused and skipped; the next request is
   served normally. *)
let test_serve_overlong_line () =
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "requests"
      and output = Filename.concat dir "responses" in
      Out_channel.with_open_bin input (fun oc ->
          output_string oc (String.make (1024 * 1024) 'x');
          output_string oc "\nstatus\nquit\n");
      let srv = Bintuner.Server.create () in
      Fun.protect
        ~finally:(fun () -> Bintuner.Server.close srv)
        (fun () ->
          In_channel.with_open_bin input (fun ic ->
              Out_channel.with_open_bin output (fun oc ->
                  Bintuner.Server.serve_channel srv ic oc)));
      match In_channel.with_open_bin output In_channel.input_all
            |> String.split_on_char '\n'
      with
      | [ refused; status; bye; "" ] ->
        Alcotest.(check bool) "overlong line refused" true
          (contains refused "\"ok\":false" && contains refused "65536");
        Alcotest.(check bool) "status served after it" true
          (contains status "\"ok\":true" && contains status "\"completed\":0");
        Alcotest.(check bool) "quit answered" true (contains bye "\"bye\"")
      | lines ->
        Alcotest.fail
          (Printf.sprintf "expected 3 responses, got %d lines"
             (List.length lines)))

(* The session pool is shut down with the daemon: no leaked domains. *)
let test_serve_no_leaked_domains () =
  let before = Parallel.Pool.live_domains () in
  let srv = Bintuner.Server.create ~jobs:2 () in
  ignore (request srv "status");
  Bintuner.Server.close srv;
  Alcotest.(check int) "live domains restored" before
    (Parallel.Pool.live_domains ())

let tests =
  [
    Alcotest.test_case "serve protocol" `Quick test_serve_protocol;
    Alcotest.test_case "serve retired requests" `Quick
      test_serve_retired_requests;
    Alcotest.test_case "serve status fixed size" `Slow
      test_serve_status_fixed_size;
    Alcotest.test_case "serve objective parameter" `Slow
      test_serve_objective_parameter;
    Alcotest.test_case "serve cross-job sharing" `Slow
      test_serve_cross_job_sharing;
    Alcotest.test_case "serve warm repeat checks nothing" `Slow
      test_serve_warm_repeat_checks_nothing;
    Alcotest.test_case "serve warm store = cold tune" `Slow
      test_serve_warm_store_matches_cold_tune;
    Alcotest.test_case "serve torn store recovery" `Slow
      test_serve_recovers_from_torn_store;
    Alcotest.test_case "serve status counters sum jobs" `Slow
      test_serve_status_counters_sum_jobs;
    Alcotest.test_case "serve overlong line" `Quick test_serve_overlong_line;
    Alcotest.test_case "serve no leaked domains" `Quick
      test_serve_no_leaked_domains;
  ]
