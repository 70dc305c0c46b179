(* Tests for the serve daemon: the line protocol, cross-job cache
   sharing through the shared session, the warm-store-vs-cold-one-shot
   differential (caching must be lossless), and crash recovery from a
   torn store entry.  Everything drives [Server.handle_line] in-process —
   the socket/stdin transports share one thin loop over it, exercised
   through [Server.serve_channel] by the overlong-line case. *)

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

let counter (j : Bintuner.Server.job_summary) name =
  Bintuner.Tuner.counter j.result name

(* one request, expecting exactly one response *)
let request srv line =
  match Bintuner.Server.handle_line srv line with
  | [ r ], keep_going -> (r, keep_going)
  | rs, _ ->
    Alcotest.fail
      (Printf.sprintf "expected 1 response to %S, got %d" line (List.length rs))

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
        (contains status "\"ok\":true" && contains status "\"queued\":0");
      Alcotest.(check bool) "no store configured" true
        (contains status "\"store\":false");
      let r, _ = request srv "submit bench=no-such-benchmark" in
      Alcotest.(check bool) "unknown bench rejected" true
        (contains r "\"ok\":false" && contains r "no-such-benchmark");
      let r, _ = request srv "submit strategy=psychic" in
      Alcotest.(check bool) "unknown strategy rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "submit budget=lots" in
      Alcotest.(check bool) "non-integer budget rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "frobnicate" in
      Alcotest.(check bool) "unknown verb rejected" true
        (contains r "\"ok\":false");
      (* a rejected submit queues nothing *)
      Alcotest.(check int) "queue still empty" 0
        (Bintuner.Server.queue_depth srv);
      let r, _ = request srv "submit bench=462.libquantum budget=5" in
      Alcotest.(check bool) "submit acknowledges with id" true
        (contains r "\"ok\":true" && contains r "\"job\":1");
      Alcotest.(check int) "queued" 1 (Bintuner.Server.queue_depth srv);
      let status, _ = request srv "status" in
      Alcotest.(check bool) "status sees the queue" true
        (contains status "\"queued\":1" && contains status "462.libquantum");
      let r, keep_going = request srv "quit" in
      Alcotest.(check bool) "quit stops the loop" false keep_going;
      Alcotest.(check bool) "quit is polite" true (contains r "\"ok\":true"))

(* The [objective] job parameter: a malformed spec is rejected without
   killing the daemon, and a 2-axis job's summary carries the axis
   names, the best score vector and a non-dominated front. *)
let test_serve_objective_parameter () =
  let srv = Bintuner.Server.create () in
  Fun.protect
    ~finally:(fun () -> Bintuner.Server.close srv)
    (fun () ->
      let r, _ = request srv "submit bench=429.mcf objective=bogus" in
      Alcotest.(check bool) "unknown objective rejected" true
        (contains r "\"ok\":false");
      let r, _ = request srv "submit bench=429.mcf objective=ncd,ncd" in
      Alcotest.(check bool) "duplicate axis rejected" true
        (contains r "\"ok\":false");
      Alcotest.(check int) "nothing queued" 0 (Bintuner.Server.queue_depth srv);
      let r, _ =
        request srv "tune bench=429.mcf budget=25 objective=ncd,gadgets"
      in
      Alcotest.(check bool) "2-axis job ok" true (contains r "\"ok\":true");
      Alcotest.(check bool) "summary names the axes" true
        (contains r "\"objectives\":\"ncd,gadgets\"");
      Alcotest.(check bool) "summary carries the front" true
        (contains r "\"front_size\":" && contains r "\"best_scores\":");
      (match Bintuner.Server.completed srv with
      | [ j ] ->
        let r = j.Bintuner.Server.result in
        Alcotest.(check (list string))
          "job summary axes" [ "ncd"; "gadgets" ] r.objectives;
        Alcotest.(check int) "score arity" 2 (Array.length r.best_scores);
        Alcotest.(check bool) "front non-empty and non-dominated" true
          (r.front <> [] && Search.Pareto.is_non_dominated r.front);
        Alcotest.(check bool) "objective memos saw traffic" true
          (counter j "objective.memo.hit" + counter j "objective.memo.miss" > 0)
      | l ->
        Alcotest.fail
          (Printf.sprintf "expected 1 completed job, got %d" (List.length l)));
      let status, _ = request srv "status" in
      Alcotest.(check bool) "status jobs carry objective counters" true
        (contains status "\"objective.memo.hit\":"
        && contains status "\"objective.memo.miss\":"))

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
          match Bintuner.Server.completed srv with
          | [ j1; j2 ] ->
            Alcotest.(check bool) "job 1 ran cold" true
              (counter j1 "memo.miss" > 0);
            (* the shared memo serves job 2 the binaries job 1 compiled *)
            Alcotest.(check bool) "job 2 hits the shared memo" true
              (counter j2 "memo.hit" > 0);
            Alcotest.(check bool) "job 2 compiles less than job 1" true
              (counter j2 "memo.miss" < counter j1 "memo.miss");
            Alcotest.(check string) "same best vector"
              (Bintuner.Database.vector_to_string j1.result.best_vector)
              (Bintuner.Database.vector_to_string j2.result.best_vector)
          | l ->
            Alcotest.fail
              (Printf.sprintf "expected 2 completed jobs, got %d"
                 (List.length l))))

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
          (fun () ->
            ignore (request srv job_line);
            match Bintuner.Server.completed srv with
            | [ j ] -> j
            | l ->
              Alcotest.fail
                (Printf.sprintf "expected 1 completed job, got %d"
                   (List.length l)))
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
      let warm = j2.result in
      Alcotest.(check string) "job 2 best vector = cold one-shot tune"
        (Bintuner.Database.vector_to_string cold.Bintuner.Tuner.best_vector)
        (Bintuner.Database.vector_to_string warm.best_vector);
      Alcotest.(check bool) "job 2 best ncd bit-identical to cold" true
        (Int64.bits_of_float warm.best_ncd
        = Int64.bits_of_float cold.Bintuner.Tuner.best_ncd);
      Alcotest.(check int) "same iteration count" cold.iterations
        warm.iterations)

(* Crash recovery: a store directory with a torn shard entry must load,
   quarantine the entry on first touch, recompute, and finish the job —
   never crash the daemon or change the answer. *)
let test_serve_recovers_from_torn_store () =
  with_temp_dir (fun dir ->
      let best1 =
        let srv = Bintuner.Server.create ~store_dir:dir ~memo_max_bytes:1 () in
        Fun.protect
          ~finally:(fun () -> Bintuner.Server.close srv)
          (fun () ->
            ignore (request srv job_line);
            match Bintuner.Server.completed srv with
            | [ j ] -> j.Bintuner.Server.result.best_vector
            | _ -> Alcotest.fail "expected 1 completed job")
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
          (match Bintuner.Server.completed srv with
          | [ j ] ->
            Alcotest.(check string) "answer unchanged after recovery"
              (Bintuner.Database.vector_to_string best1)
              (Bintuner.Database.vector_to_string
                 j.Bintuner.Server.result.best_vector)
          | _ -> Alcotest.fail "expected 1 completed job");
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
          ignore (request srv job_line);
          ignore
            (request srv "tune bench=429.mcf profile=llvm strategy=hill budget=20");
          let jobs = Bintuner.Server.completed srv in
          Alcotest.(check int) "two jobs completed" 2 (List.length jobs);
          let expected =
            List.map
              (fun (name, _) ->
                Printf.sprintf "\"%s\":%d" name
                  (List.fold_left (fun acc j -> acc + counter j name) 0 jobs))
              (Bintuner.Session.counters (Bintuner.Server.session srv))
          in
          let status, _ = request srv "status" in
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
          (contains status "\"ok\":true" && contains status "\"queued\":0");
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
    Alcotest.test_case "serve objective parameter" `Slow
      test_serve_objective_parameter;
    Alcotest.test_case "serve cross-job sharing" `Slow
      test_serve_cross_job_sharing;
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
