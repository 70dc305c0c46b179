(* perfbench: the repository's end-to-end benchmark.

   One process and one closed-loop client: a seeded script of tuning jobs
   runs back to back, each job starting when the previous one returns,
   through the entry points users call — [Bintuner.Tuner.tune] for the
   tune-hill and tune-ga workloads, the serve daemon's in-process
   [Bintuner.Server.handle_line] for serve-mixed — on a [Parallel.Pool]
   of nproc lanes.

     --trace 0  end-to-end metrics, measured with telemetry off
     --trace 1  the same jobs driven through a bench-side composition of
                the public layer functions; every call into a layer is
                timed here, outside the program, and the per-layer self
                times reconcile with the traced wall time

   The last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  perfbench/README.md gives each
   workload's reason and the metric-to-layer map. *)

let now = Unix.gettimeofday
let printf = Printf.printf
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type workload = Tune_hill | Tune_ga | Serve_mixed

let workloads =
  [ ("tune-hill", Tune_hill); ("tune-ga", Tune_ga); ("serve-mixed", Serve_mixed) ]

let workload_arg = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let tiny = ref false
let perturb = ref false
let drop_frame = ref ""
let setup_only_flag = ref false

let usage =
  "main.exe --workload tune-hill|tune-ga|serve-mixed --seed N --seconds S \
   --trace 0|1 [--tiny] [--perturb] [--drop-frame LAYER]"

let spec =
  [
    ("--workload", Arg.Set_string workload_arg, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed the job script is drawn from");
    ("--seconds", Arg.Set_int seconds, "S length of the measured window");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ("--tiny", Arg.Set tiny, " tiny budgets and a single round (self-test)");
    ( "--perturb",
      Arg.Set perturb,
      " corrupt one repeat's outcome, or with --trace 1 one traced \
       composition's outcome (self-test)" );
    ( "--drop-frame",
      Arg.Set_string drop_frame,
      "LAYER with --trace 1, leave the frames of one layer untimed, so its \
       time is unattributed (self-test)" );
    ( "--setup-only",
      Arg.Set setup_only_flag,
      " set up once, print the seconds it took and exit (the run's own \
       set-up samples)" );
  ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median = Util.Stats.median
let percentile = Util.Stats.percentile
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The highest whole percentile with at least ten samples above it, or
   [None] when the run has ten samples or fewer. *)
let tail_percentile n = if n <= 10 then None else Some (100 * (n - 10) / n)

let describe name xs =
  let n = List.length xs in
  let tail =
    match tail_percentile n with
    | None -> ""
    | Some p ->
      Printf.sprintf " p%d=%.4f" p (percentile xs (float_of_int p /. 100.0))
  in
  printf "%s: p50=%.4f%s n=%d\n" name (median xs) tail n

(* ------------------------------------------------------------------ *)
(* The job script                                                      *)
(* ------------------------------------------------------------------ *)

(* A cell is one kind of job; a round runs every cell once as a
   first-seen job, then every cell once more as a repeat of that job.
   Fixed proportions per round keep the medians from depending on how
   many rounds fit the window. *)
type cell = {
  bench : Corpus.benchmark;
  profile : Toolchain.Flags.profile;
  strategy : string;
  objective : string option;
}

type job = {
  id : int;  (* the first-seen job's number; a repeat carries it too *)
  round : int;
  repeat : bool;
  cell : cell;
  arch : Isa.Insn.arch;
  tseed : int;
  budget : int;
}

(* Each workload tunes a fixed program set under both profiles: one small
   program, four medium ones of similar tuning cost, and one large one.
   Most jobs then cost about the same, so the job-time medians sit inside
   a dense band rather than between two clusters, and any two seeds cost
   about the same.  The seed draws each job's tuner seed and the order of
   the first-seen jobs and of the repeats within a round.
   coreutils is left out of the GA workloads: one GA job there takes
   ~35 s on two cores, most of it in a single pathological SCCP call. *)
let small = [ "600.perlbench_s" ]
let medium = [ "483.xalancbmk"; "657.xz_s"; "605.mcf_s"; "473.astar" ]

let cells_of kind =
  let large = if kind = Tune_hill then "coreutils" else "openssl" in
  let strategy = if kind = Tune_hill then "hill" else "ga" in
  let grid =
    List.concat_map
      (fun name ->
        List.map
          (fun profile ->
            { bench = Corpus.find name; profile; strategy; objective = None })
          [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ])
      (small @ medium @ [ large ])
  in
  match kind with
  | Serve_mixed ->
    grid
    @ [
        {
          bench = Corpus.find (List.hd small);
          profile = Toolchain.Flags.gcc;
          strategy;
          objective = Some "ncd,gadgets:0.5";
        };
      ]
  | Tune_hill | Tune_ga -> grid

let budget_of kind =
  if !tiny then 8 else match kind with Tune_hill -> 44 | Tune_ga | Serve_mixed -> 32

(* Serve-mixed gives each cell a new target arch every round, so a
   first-seen job shares no compile with an earlier round's job (cold) and
   only a repeat is served from the caches (warm); the offset by cell
   gives every round the same mix of arches.  The tune workloads stay on
   x86-64. *)
let archs = [| Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips |]

let shuffled rng xs =
  let a = Array.of_list xs in
  Util.Rng.shuffle rng a;
  Array.to_list a

let make_round kind rng cells r =
  let fresh =
    List.mapi
      (fun ci cell ->
        {
          id = (r * List.length cells) + ci;
          round = r;
          repeat = false;
          cell;
          arch =
            (if kind = Serve_mixed then archs.((r + ci) mod Array.length archs)
             else Isa.Insn.X86_64);
          tseed = 1 + Util.Rng.int rng 1_000_000;
          budget = budget_of kind;
        })
      cells
  in
  let fresh = shuffled rng fresh in
  fresh @ shuffled rng (List.map (fun j -> { j with repeat = true }) fresh)

let termination budget = { Search.default_termination with max_evaluations = budget }

let request_line j =
  Printf.sprintf "tune bench=%s profile=%s arch=%s strategy=%s budget=%d seed=%d%s"
    j.cell.bench.Corpus.bname j.cell.profile.Toolchain.Flags.profile_name
    (Isa.Insn.arch_name j.arch) j.cell.strategy j.budget j.tseed
    (match j.cell.objective with Some o -> " objective=" ^ o | None -> "")

(* ------------------------------------------------------------------ *)
(* Outcomes and checks                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  vector : string;
  best : float;
  iterations : int;
  functional : bool;
}

let outcome_line o =
  Printf.sprintf "%s %h %d %b" o.vector o.best o.iterations o.functional

let of_result (r : Bintuner.Tuner.result) =
  {
    vector = Bintuner.Database.vector_to_string r.best_vector;
    best = r.best_ncd;
    iterations = r.iterations;
    functional = r.functional_ok;
  }

(* Every failed operation is counted once, with its reason. *)
type checker = {
  firsts_seen : (int, outcome) Hashtbl.t;  (* job id -> first outcome *)
  digest : Buffer.t;  (* every outcome of the run, in order *)
  mutable attempted : int;
  mutable failed : int;
  mutable perturbed : bool;
}

let checker () =
  {
    firsts_seen = Hashtbl.create 64;
    digest = Buffer.create 4096;
    attempted = 0;
    failed = 0;
    perturbed = false;
  }

let fail c j reason =
  c.failed <- c.failed + 1;
  printf "FAILED job %d (%s): %s\n%!" j.id (request_line j) reason

(* Check one job's outcome: functional correctness, and equality of a
   repeat with its first run.  In the untraced run [--perturb] corrupts
   the first repeat's outcome, which must then be counted as failed. *)
let check c j (o : outcome) =
  let o =
    if !perturb && !trace = 0 && j.repeat && not c.perturbed then begin
      c.perturbed <- true;
      { o with best = o.best +. 1.0 }
    end
    else o
  in
  Buffer.add_string c.digest (outcome_line o);
  Buffer.add_char c.digest '\n';
  if not o.functional then fail c j "tuned binary failed its test workloads"
  else if j.repeat then begin
    match Hashtbl.find_opt c.firsts_seen j.id with
    | Some first when first <> o ->
      fail c j
        (Printf.sprintf "repeat outcome %s differs from first run %s"
           (outcome_line o) (outcome_line first))
    | Some _ | None -> ()
  end
  else Hashtbl.replace c.firsts_seen j.id o

(* ------------------------------------------------------------------ *)
(* Serve responses                                                     *)
(* ------------------------------------------------------------------ *)

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1)
  in
  go 0

(* The raw text of a flat field of a response object: responses are
   single-line JSON whose scalar fields never contain commas. *)
let field resp key =
  let pat = "\"" ^ key ^ "\":" in
  match find_sub resp pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    if start < String.length resp && resp.[start] = '"' then
      Option.map
        (fun e -> String.sub resp (start + 1) (e - start - 1))
        (String.index_from_opt resp (start + 1) '"')
    else
      let rec stop k =
        if k >= String.length resp || resp.[k] = ',' || resp.[k] = '}' then k
        else stop (k + 1)
      in
      Some (String.sub resp start (stop start - start))

let int_field resp key = Option.bind (field resp key) int_of_string_opt
let float_field resp key = Option.bind (field resp key) float_of_string_opt

(* Outcome and wall seconds of a tune response; [Error] on a refusal or
   a malformed response. *)
let parse_response resp =
  match
    ( field resp "ok",
      field resp "best_vector",
      float_field resp "best_ncd",
      int_field resp "iterations",
      field resp "functional_ok",
      float_field resp "wall_seconds" )
  with
  | Some "true", Some vector, Some best, Some iterations, Some functional, Some wall
    ->
    Ok ({ vector; best; iterations; functional = functional = "true" }, wall)
  | Some "false", _, _, _, _, _ ->
    Error (Option.value ~default:"refused" (field resp "error"))
  | _ -> Error ("malformed response " ^ resp)

(* ------------------------------------------------------------------ *)
(* Scratch space inside the checkout                                    *)
(* ------------------------------------------------------------------ *)

let tmp_root = ".perfbench_tmp"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let store_counter = ref 0

let fresh_store_dir () =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  incr store_counter;
  let dir =
    Filename.concat tmp_root
      (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_counter)
  in
  rm_rf dir;
  dir

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      String.trim (read_file (Filename.concat ".git" ref_)))
    | _ -> head
  with Sys_error _ -> "none"

(* A digest of the library sources, which identifies the measured code
   where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p else [ p ])
  in
  try
    files "lib"
    |> List.map (fun p -> p ^ "\000" ^ read_file p)
    |> String.concat "\000" |> Digest.string |> Digest.to_hex
  with Sys_error _ -> "none"

(* The process's resident-set high-water mark (Linux procfs). *)
let peak_rss_mb () =
  read_file "/proc/self/status"
  |> String.split_on_char '\n'
  |> List.find (String.starts_with ~prefix:"VmHWM:")
  |> fun line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)
(* Layer timers (traced run)                                           *)
(* ------------------------------------------------------------------ *)

(* Exclusive time per layer, from nested frames opened around every call
   into a layer.  A frame's self time is its duration minus its child
   frames'.  Frames opened inside a pool task are lane time: a parallel
   region of wall W on j lanes holds j·W lane-seconds, so a layer's share
   of wall time there is its lane-seconds / j, and the rest of the
   region, W − busy/j, is pool idle time.  Frames on the client's own
   thread count at full weight.  The pass spans the program already
   records are read from telemetry and subtracted from the pipeline's
   self time. *)
module Layers = struct
  type frame = { mutable child : float }

  let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
  let in_lane : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
  let lock = Mutex.create ()
  let main_s : (string, float) Hashtbl.t = Hashtbl.create 32
  let lane_s : (string, float) Hashtbl.t = Hashtbl.create 32
  let counts : (string, float) Hashtbl.t = Hashtbl.create 32
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
  let count ?(by = 1.0) k = locked (fun () -> bump counts k by)

  let sample k v =
    locked (fun () ->
        Hashtbl.replace samples k
          (v :: Option.value ~default:[] (Hashtbl.find_opt samples k)))

  let samples_of k = Option.value ~default:[] (Hashtbl.find_opt samples k)

  (* [time ?sample name f] runs [f] as a frame of layer [name]; [sample]
     also records the frame's full duration in milliseconds. *)
  let time ?sample:key name f =
    if name = !drop_frame then f () else
    let st = Domain.DLS.get stack in
    let fr = { child = 0.0 } in
    st := fr :: !st;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let d = now () -. t0 in
        st := List.tl !st;
        (match !st with p :: _ -> p.child <- p.child +. d | [] -> ());
        let tbl = if !(Domain.DLS.get in_lane) then lane_s else main_s in
        locked (fun () -> bump tbl name (d -. fr.child));
        Option.iter (fun k -> sample k (1000.0 *. d)) key)

  (* One pool task: a fresh frame stack (the client thread also runs
     tasks, and its open frames must not absorb lane time), and its
     whole duration counted as pool busy time. *)
  let task f x =
    let st = Domain.DLS.get stack and lane = Domain.DLS.get in_lane in
    let saved_st = !st and saved_lane = !lane in
    st := [];
    lane := true;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        locked (fun () -> bump counts "pool.busy" (now () -. t0));
        st := saved_st;
        lane := saved_lane)
      (fun () -> time "task" (fun () -> f x))

  let region f = time "pool.region" f
end

module L = Layers

(* The pass spans [Toolchain.Pipeline] records, by pass name. *)
let pass_names =
  [
    "instrument"; "normalize_calls"; "expand_builtins"; "inline"; "unswitch";
    "distribute"; "unroll_and_jam"; "unroll"; "peel"; "lower"; "simplify_cfg";
    "baseline"; "sccp"; "strength_reduce"; "lvn"; "dce"; "licm"; "licm_dom";
    "gvn"; "if_convert"; "slp_vectorize"; "tail_call"; "branch_count_reg";
    "reorder_blocks"; "partition"; "if_convert_late"; "late_cleanup";
    "reorder_functions";
  ]

(* Passes reported one by one: those above 1 % of compile time on some
   workload in the first traced runs; the rest are summed in
   [pass.other_s]. *)
let reported_passes =
  [
    "sccp"; "baseline"; "late_cleanup"; "licm_dom"; "if_convert"; "dce"; "licm";
    "lvn"; "simplify_cfg"; "gvn"; "if_convert_late";
  ]

(* ------------------------------------------------------------------ *)
(* The traced composition of one tuning job                           *)
(* ------------------------------------------------------------------ *)

(* The caches one job reads and writes: fresh per job for one-shot
   tuning, the daemon session's for serve-mixed. *)
type caches = {
  memo : Bintuner.Memo.t;
  prefix : Bintuner.Incremental.t;
  sizecache : Compress.Sizecache.t;
  store : Bintuner.Store.t option;
  seen_streams : (string, unit) Hashtbl.t;
      (* the size cache's keys, mirrored here to count LZ input bytes *)
}

let one_shot_caches () =
  {
    memo = Bintuner.Memo.create ();
    prefix = Bintuner.Incremental.create ();
    sizecache = Compress.Sizecache.create ();
    store = None;
    seen_streams = Hashtbl.create 64;
  }

let session_caches seen s =
  {
    memo = Bintuner.Session.memo s;
    prefix = Bintuner.Session.incremental s;
    sizecache = Bintuner.Session.sizecache s (Compress.Lz.default_level ());
    store = Bintuner.Session.store s;
    seen_streams = seen;
  }

(* LZ input bytes of the NCD terms of [x] against [baseline] that the size
   cache has not seen: C(x) and C(x·baseline).  An estimate — it ignores
   LRU eviction and the store-backed tier. *)
let note_lz c baseline x =
  let k = Digest.string x in
  let fresh =
    L.locked (fun () ->
        if Hashtbl.mem c.seen_streams k then false
        else begin
          Hashtbl.replace c.seen_streams k ();
          true
        end)
  in
  if fresh then
    L.count "lz.bytes_in"
      ~by:(float_of_int ((2 * String.length x) + String.length baseline))

(* The snapshot closures of the prefix store, wrapped to time lookups and
   count hits and stored bytes. *)
let traced_snapshot prefix =
  let s = Bintuner.Incremental.snapshot_store prefix in
  {
    Toolchain.Pipeline.find =
      (fun k ->
        let r = L.time "incremental" (fun () -> s.find k) in
        L.count "incremental.lookups";
        if r <> None then L.count "incremental.hits";
        r);
    store =
      (fun k v ->
        L.count "incremental.bytes_stored" ~by:(float_of_int (String.length v));
        L.time "incremental" (fun () -> s.store k v));
  }

type entry = { evec : bool array; fitness : float array }

let functional_check bench bin0 bin =
  List.for_all
    (fun input ->
      let r0 = Vm.Machine.run bin0 ~input in
      let r = Vm.Machine.run bin ~input in
      r0.Vm.Machine.output = r.Vm.Machine.output
      && r0.Vm.Machine.return_value = r.Vm.Machine.return_value)
    bench.Corpus.workloads

type composed = {
  c_outcome : outcome;
  c_wall : float;
  distinct : bool array list;  (* distinct evaluated vectors, in order *)
  memo_hm : int * int;
  sizecache_hm : int * int;
  store_hm : int * int;
  objective_hm : int * int;
}

(* [Tuner.tune]'s pipeline, recomposed from the public layer functions
   with a frame around every call into a layer.  It draws from the same
   rng in the same order, so its search outcome equals [Tuner.tune]'s for
   the same job — the run checks that on every job. *)
let compose ~pool ~caches j =
  let t0 = now () in
  let bench = j.cell.bench and profile = j.cell.profile and arch = j.arch in
  let memo_h0 = Bintuner.Memo.hits caches.memo
  and memo_m0 = Bintuner.Memo.misses caches.memo in
  let sc_h0 = Compress.Sizecache.hits caches.sizecache
  and sc_m0 = Compress.Sizecache.misses caches.sizecache in
  let store_counts () =
    match caches.store with
    | Some st -> (Bintuner.Store.hits st, Bintuner.Store.misses st)
    | None -> (0, 0)
  in
  let st_h0, st_m0 = store_counts () in
  let objectives =
    match j.cell.objective with
    | None -> Search.Objective.default
    | Some s -> Search.Objective.parse s
  in
  let evaluator = ref None in
  let database = ref [] in
  let result =
    L.time "job" @@ fun () ->
    let strategy = Search.of_name j.cell.strategy in
    let rng =
      Util.Rng.create
        (j.tseed + Hashtbl.hash (bench.Corpus.bname, profile.Toolchain.Flags.profile_name))
    in
    let ast = Corpus.program bench in
    let snapshot = traced_snapshot caches.prefix in
    let in_region f = (L.region (fun () -> Parallel.Pool.map pool (L.task f) [| () |])).(0) in
    let code_stream bin = L.time "code_stream" (fun () -> Bintuner.Tuner.code_stream bin) in
    let compile_ast f =
      L.count "pipeline.compile_calls";
      L.time ~sample:"compile_ms" "pipeline" f
    in
    let baseline, baseline_stream =
      in_region (fun () ->
          let b =
            compile_ast (fun () ->
                Toolchain.Pipeline.compile_preset profile ~arch ~snapshot "O0" ast)
          in
          (b, code_stream b))
    in
    let program = Digest.to_hex (Digest.string bench.Corpus.source) in
    let compile vector =
      let key =
        Bintuner.Memo.key ~program ~profile:profile.Toolchain.Flags.profile_name ~arch
          vector
      in
      L.time "memo" (fun () ->
          Bintuner.Memo.find_or_compile caches.memo ~key (fun () ->
              let build () =
                compile_ast (fun () ->
                    Toolchain.Pipeline.compile_flags profile ~arch ~snapshot vector
                      ast)
              in
              match caches.store with
              | None -> build ()
              | Some st -> (
                let skey = "bin|" ^ key in
                match L.time "memo" (fun () -> Bintuner.Store.find_binary st skey) with
                | Some bin -> bin
                | None ->
                  let bin = build () in
                  L.time "memo" (fun () -> Bintuner.Store.store_binary st skey bin);
                  bin)))
    in
    let ncd_of stream =
      note_lz caches baseline_stream stream;
      L.time "ncd" (fun () ->
          Compress.Ncd.distance_via caches.sizecache stream baseline_stream)
    in
    if not (Search.Objective.is_scalar_ncd objectives) then
      evaluator :=
        Some
          (Search.Objective.evaluator
             ~ncd:(fun bin -> ncd_of (code_stream bin))
             objectives);
    let batch_fitness vectors =
      L.time "batch" @@ fun () ->
      L.count "search.batches";
      L.sample "batch_size" (float_of_int (Array.length vectors));
      let vecs =
        match !evaluator with
        | None ->
          let streams =
            L.region (fun () ->
                Parallel.Pool.map pool
                  (L.task (fun v -> code_stream (compile v)))
                  vectors)
          in
          Array.iter (note_lz caches baseline_stream) streams;
          let ncds =
            L.time "ncd" (fun () ->
                Compress.Ncd.against ~pool ~span:"tuner.ncd" ~cache:caches.sizecache
                  ~baseline:baseline_stream streams)
          in
          Array.map (fun n -> [| n |]) ncds
        | Some ev ->
          L.region (fun () ->
              Parallel.Pool.map pool
                (L.task (fun v ->
                     let bin = compile v in
                     L.time "objective" (fun () -> Search.Objective.evaluate ev bin)))
                vectors)
      in
      Array.iteri
        (fun i v -> database := { evec = Array.copy v; fitness = vecs.(i) } :: !database)
        vectors;
      vecs
    in
    let fitness vector = (batch_fitness [| vector |]).(0) in
    let scalarize = Search.Objective.scalarize objectives in
    let repair v =
      L.count "constraints.repair_calls";
      L.time "repair" (fun () -> Toolchain.Constraints.repair profile rng v)
    in
    let seeds =
      List.filter_map
        (fun name -> Toolchain.Flags.preset profile name)
        [ "O1"; "O2"; "O3"; "Os" ]
    in
    let outcome =
      L.time "search" (fun () ->
          Search.run ~batch_fitness ~scalarize
            ~axes:(Search.Objective.names objectives)
            ~rng ~termination:(termination j.budget)
            ~problem:
              {
                Search.ngenes = Array.length profile.Toolchain.Flags.flags;
                seeds;
                repair;
              }
            ~fitness strategy)
    in
    (* final selection, as in [Tuner.tune]: BinHunt over the top
       candidates, strata samples and the repaired preset seeds *)
    let candidates =
      L.time "select" (fun () ->
          let sorted =
            List.sort
              (fun a b -> compare (scalarize b.fitness) (scalarize a.fitness))
              !database
          in
          let seen = Hashtbl.create 16 in
          let dedup =
            List.filter
              (fun e ->
                let key = Array.to_list e.evec in
                if Hashtbl.mem seen key then false
                else begin
                  Hashtbl.replace seen key ();
                  true
                end)
              sorted
          in
          let n = List.length dedup in
          let top = List.filteri (fun i _ -> i < 4) dedup in
          let stride = max 1 (n / 5) in
          let strata = List.filteri (fun i _ -> i mod stride = 0 && i >= 4) dedup in
          let seed_entries =
            List.map
              (fun v ->
                {
                  evec = repair (Array.copy v);
                  fitness = Array.make (Search.Objective.arity objectives) 0.0;
                })
              seeds
          in
          top @ List.filteri (fun i _ -> i < 4) strata @ seed_entries)
    in
    let best_binary = in_region (fun () -> compile outcome.Search.best) in
    let refined_binary =
      let scored =
        L.region (fun () ->
            Parallel.Pool.map_list ~chunk_size:1 pool
              (L.task (fun e ->
                   let bin = compile e.evec in
                   L.count "binhunt.calls";
                   ( L.time "binhunt" (fun () -> Diffing.Binhunt.diff_score bin baseline),
                     bin )))
              candidates)
      in
      snd
        (List.fold_left
           (fun (bs, bb) (s, b) -> if s > bs then (s, b) else (bs, bb))
           (neg_infinity, best_binary) scored)
    in
    ignore
      (L.region (fun () ->
           Parallel.Pool.map_list ~chunk_size:1 pool
             (L.task (fun name ->
                  let bin =
                    compile_ast (fun () ->
                        Toolchain.Pipeline.compile_preset profile ~arch ~snapshot name
                          ast)
                  in
                  ncd_of (code_stream bin)))
             [ "O0"; "O1"; "O2"; "O3"; "Os" ]));
    let functional =
      L.time "vm" (fun () ->
          functional_check bench baseline best_binary
          && functional_check bench baseline refined_binary)
    in
    database := List.rev !database;
    {
      vector = Bintuner.Database.vector_to_string outcome.Search.best;
      best = outcome.Search.best_fitness;
      iterations = outcome.Search.evaluations;
      functional;
    }
  in
  let c_wall = now () -. t0 in
  let st_h1, st_m1 = store_counts () in
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun e ->
        let k = Bintuner.Database.vector_to_string e.evec in
        (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
      !database
  in
  {
    c_outcome = result;
    c_wall;
    distinct = List.map (fun e -> e.evec) distinct;
    memo_hm =
      ( Bintuner.Memo.hits caches.memo - memo_h0,
        Bintuner.Memo.misses caches.memo - memo_m0 );
    sizecache_hm =
      ( Compress.Sizecache.hits caches.sizecache - sc_h0,
        Compress.Sizecache.misses caches.sizecache - sc_m0 );
    store_hm = (st_h1 - st_h0, st_m1 - st_m0);
    objective_hm =
      (match !evaluator with
      | None -> (0, 0)
      | Some ev ->
        List.fold_left
          (fun (h, m) (_, h', m') -> (h + h', m + m'))
          (0, 0)
          (Search.Objective.memo_counts ev));
  }

(* Snapshot marshalling and keying cost: compile a sample of the job's
   distinct vectors with no store and with a store that never hits,
   alternating the order, and scale the difference to every distinct
   vector.  Returns (overhead seconds, plain compile seconds). *)
let replay_sample = 6

let replay j vectors =
  let never = { Toolchain.Pipeline.find = (fun _ -> None); store = (fun _ _ -> ()) } in
  let n = List.length vectors in
  let stride = max 1 (n / replay_sample) in
  let picked = List.filteri (fun i _ -> i mod stride = 0) vectors in
  let ast = Corpus.program j.cell.bench in
  let timed snapshot v =
    let t0 = now () in
    ignore
      (Toolchain.Pipeline.compile_flags j.cell.profile ~arch:j.arch ?snapshot v ast);
    now () -. t0
  in
  let over, plain =
    List.fold_left
      (fun (over, plain) (i, v) ->
        let a, b =
          if i mod 2 = 0 then
            let a = timed None v in
            (a, timed (Some never) v)
          else
            let b = timed (Some never) v in
            (timed None v, b)
        in
        (over +. (b -. a), plain +. a))
      (0.0, 0.0)
      (List.mapi (fun i v -> (i, v)) picked)
  in
  let scale = float_of_int n /. float_of_int (max 1 (List.length picked)) in
  (over *. scale, plain *. scale)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end_units =
  [
    ("evals_per_s", "1/s");
    ("job_s_p50", "s");
    ("warm_job_s_p50", "s");
    ("cold_job_s_p50", "s");
    ("best_ncd_mean", "ncd");
    ("success_rate", "ratio");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer_units =
  [
    ("constraints.repair_s", "s");
    ("constraints.repair_calls", "count");
    ("pipeline.compile_s", "s");
    ("pipeline.compile_calls", "count");
    ("pipeline.compile_ms_p50", "ms");
    ("pipeline.compile_ms_p99", "ms");
    ("pipeline.self_s", "s");
  ]
  @ List.map (fun p -> ("pass." ^ p ^ "_s", "s")) reported_passes
  @ [
      ("pass.other_s", "s");
      ("emit.s", "s");
      ("incremental.lookups", "count");
      ("incremental.hit_ratio", "ratio");
      ("incremental.lookup_s", "s");
      ("incremental.restore_s", "s");
      ("incremental.bytes_stored", "bytes");
      ("incremental.overhead_s", "s");
      ("incremental.overhead_share", "ratio");
      ("memo.s", "s");
      ("memo.hit_ratio", "ratio");
      ("store.hit_ratio", "ratio");
      ("store.resident_bytes", "bytes");
      ("store.evictions", "count");
      ("store.quarantined", "count");
      ("code_stream.s", "s");
      ("ncd.s", "s");
      ("sizecache.hit_ratio", "ratio");
      ("lz.bytes_in", "bytes");
      ("search.engine_s", "s");
      ("search.batches", "count");
      ("search.batch_size_p50", "count");
      ("tuner.bookkeeping_s", "s");
      ("tuner.select_s", "s");
      ("pool.busy_s", "s");
      ("pool.idle_s", "s");
      ("pool.idle_ratio", "ratio");
      ("binhunt.s", "s");
      ("binhunt.calls", "count");
      ("vm.check_s", "s");
      ("objective.share", "ratio");
      ("objective.hit_ratio", "ratio");
      ("server.overhead_share", "ratio");
      ("unattributed_s", "s");
      ("unattributed_share", "ratio");
      ("traced_wall_s", "s");
      ("trace_overhead", "ratio");
    ]

let emit ~correct ~attempted ~failed units values =
  let metric (name, unit_) =
    let v = Option.value ~default:0.0 (List.assoc_opt name values) in
    let v = if Float.is_finite v then v else 0.0 in
    (name, Util.Json.Obj [ ("value", Util.Json.Float v); ("unit", Util.Json.Str unit_) ])
  in
  print_endline
    (Util.Json.to_string
       (Util.Json.Obj
          [
            ("correct", Util.Json.Bool correct);
            ("attempted", Util.Json.Int attempted);
            ("failed", Util.Json.Int failed);
            ("metrics", Util.Json.Obj (List.map metric units));
          ]))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type rig = { pool : Parallel.Pool.t; daemon : Bintuner.Server.t option }

let close_rig r =
  match r.daemon with
  | Some d -> Bintuner.Server.close d
  | None -> Parallel.Pool.shutdown r.pool

(* Parse and check every program, start the pool (the daemon's own for
   serve-mixed, with its session and a fresh persistent store), and warm
   up: compile each cell's five presets, as every job's first steps do,
   and project their code streams. *)
let set_up kind cells =
  let benches =
    List.sort_uniq compare (List.map (fun c -> c.bench.Corpus.bname) cells)
    |> List.map Corpus.find
  in
  List.iter (fun b -> ignore (Minic.Sema.analyze b.Corpus.source)) benches;
  let rig =
    match kind with
    | Serve_mixed ->
      let d =
        Bintuner.Server.create ~jobs:nproc ~store_dir:(fresh_store_dir ()) ()
      in
      ignore (Bintuner.Server.handle_line d "status");
      { pool = Bintuner.Session.pool (Bintuner.Server.session d); daemon = Some d }
    | Tune_hill | Tune_ga -> { pool = Parallel.Pool.create nproc; daemon = None }
  in
  ignore
    (Parallel.Pool.map rig.pool
       (fun (c, preset) ->
         Bintuner.Tuner.code_stream
           (Toolchain.Pipeline.compile_preset c.profile preset (Corpus.program c.bench)))
       (Array.of_list
          (List.concat_map
             (fun c -> List.map (fun p -> (c, p)) [ "O0"; "O1"; "O2"; "O3"; "Os" ])
             cells)));
  rig

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Run whole rounds for about the window: a round starts while at least
   half of its expected duration (the mean so far) still fits, so the
   run ends within half a round of the window.  The first always runs. *)
let run_rounds kind rng cells f =
  let t0 = now () in
  let rec go r =
    let elapsed = now () -. t0 in
    let mean_round = if r = 0 then 0.0 else elapsed /. float_of_int r in
    if r = 0 || ((not !tiny) && elapsed +. (mean_round /. 2.0) <= float_of_int !seconds)
    then begin
      List.iter f (make_round kind rng cells r);
      go (r + 1)
    end
    else r
  in
  go 0

type sample = { sjob : job; wall : float; evals : int; profile_name : string }

let print_provenance kind ~rounds ~jobs ~setup_reps =
  let name = fst (List.find (fun (_, k) -> k = kind) workloads) in
  print_endline
    ("provenance: "
    ^ Util.Json.to_string
        (Util.Json.Obj
           [
             ("workload", Util.Json.Str name);
             ("seed", Util.Json.Int !seed);
             ("trace", Util.Json.Int !trace);
             ("commit", Util.Json.Str (git_commit ()));
             ("source_md5", Util.Json.Str (source_digest ()));
             ("jobs_j", Util.Json.Int nproc);
             ("nproc", Util.Json.Int nproc);
             ("ocaml", Util.Json.Str Sys.ocaml_version);
             ( "lz_level",
               Util.Json.Str (Compress.Lz.level_name (Compress.Lz.default_level ())) );
             ("seconds", Util.Json.Int !seconds);
             ("rounds", Util.Json.Int rounds);
             ("runs", Util.Json.Int jobs);
             ("setup_reps", Util.Json.Int setup_reps);
           ]))

let print_digest c =
  printf "outcome digest: %s (%d outcomes)\n"
    (Digest.to_hex (Digest.string (Buffer.contents c.digest)))
    c.attempted

(* One operation: run it, check its outcome, count a raise as failed. *)
let attempt c j f =
  c.attempted <- c.attempted + 1;
  match f () with
  | Ok o -> check c j o
  | Error reason -> fail c j reason
  | exception e -> fail c j ("raised " ^ Printexc.to_string e)

(* Set-up is timed many times, spread over the whole run, so that a short
   slow spell of the machine moves only a few of its samples.  The first
   set-up makes the rig the jobs run on.  After every [setup_every]-th
   job a fresh process of this program sets up once more, prints the time
   and exits, while this one waits: a set-up in a new process, as a user
   starting the program sees it, whose allocations leave this process's
   heap and peak RSS alone. *)
let setup_every = 4

let timed_set_up kind cells =
  let t0 = now () in
  let rig = set_up kind cells in
  (rig, now () -. t0)

(* [--setup-only]: one set-up, its time printed.  The serve store dir it
   made stays under [tmp_root], which the parent removes at exit. *)
let setup_only kind =
  let rig, t = timed_set_up kind (cells_of kind) in
  close_rig rig;
  printf "%.17g\n" t

let set_up_in_child () =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe [| exe; "--workload"; !workload_arg; "--setup-only" |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some t -> t
  | _ -> failwith "the set-up process failed"

let end_to_end kind =
  let rng = Util.Rng.create !seed in
  let cells = cells_of kind in
  let rig, t = timed_set_up kind cells in
  let setup_times = ref [ t ] in
  let c = checker () in
  let samples = ref [] in
  let round0 = ref [] in
  let run_job j =
    attempt c j (fun () ->
        let t0 = now () in
        let result =
          match rig.daemon with
          | Some d -> (
            match Bintuner.Server.handle_line d (request_line j) with
            | [ resp ], true -> Result.map fst (parse_response resp)
            | _ -> Error "unexpected response shape")
          | None ->
            Ok
              (of_result
                 (Bintuner.Tuner.tune ~arch:j.arch ~pool:rig.pool ~seed:j.tseed
                    ~strategy:(Search.of_name j.cell.strategy)
                    ~termination:(termination j.budget) ~profile:j.cell.profile
                    j.cell.bench))
        in
        let wall = now () -. t0 in
        Result.map
          (fun o ->
            samples :=
              {
                sjob = j;
                wall;
                evals = o.iterations;
                profile_name = j.cell.profile.Toolchain.Flags.profile_name;
              }
              :: !samples;
            if j.round = 0 && (not j.repeat) && j.cell.objective = None then
              round0 := o.best :: !round0;
            o)
          result);
    if c.attempted mod setup_every = 0 then
      setup_times := set_up_in_child () :: !setup_times
  in
  let rounds = run_rounds kind rng cells run_job in
  close_rig rig;
  rm_rf tmp_root;
  let setup_times = !setup_times in
  let samples = List.rev !samples in
  let walls p = List.filter_map (fun s -> if p s then Some s.wall else None) samples in
  let all = walls (fun _ -> true) in
  let warm = walls (fun s -> s.sjob.repeat) in
  let cold = walls (fun s -> not s.sjob.repeat) in
  let evals_per_s p =
    let ss = List.filter p samples in
    ratio
      (float_of_int (List.fold_left (fun a s -> a + s.evals) 0 ss))
      (sum (List.map (fun s -> s.wall) ss))
  in
  print_provenance kind ~rounds ~jobs:c.attempted
    ~setup_reps:(List.length setup_times);
  describe "job_s" all;
  describe "warm_job_s" warm;
  describe "cold_job_s" cold;
  describe "setup_s" setup_times;
  List.iter
    (fun cell ->
      let mine s = s.sjob.cell == cell in
      printf "cell %s/%s/%s%s: cold p50=%.4f warm p50=%.4f evals_per_s=%.2f\n"
        cell.bench.Corpus.bname cell.profile.Toolchain.Flags.profile_name
        cell.strategy
        (match cell.objective with Some o -> "/" ^ o | None -> "")
        (median (walls (fun s -> mine s && not s.sjob.repeat)))
        (median (walls (fun s -> mine s && s.sjob.repeat)))
        (evals_per_s mine))
    cells;
  List.iter
    (fun p ->
      let name = p.Toolchain.Flags.profile_name in
      printf "evals_per_s[%s]: %.3f\n" name (evals_per_s (fun s -> s.profile_name = name)))
    [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ];
  printf "error_rate: %.4f (%d of %d operations failed)\n"
    (ratio (float_of_int c.failed) (float_of_int c.attempted))
    c.failed c.attempted;
  print_digest c;
  emit ~correct:(c.failed = 0) ~attempted:c.attempted ~failed:c.failed
    end_to_end_units
    [
      ("evals_per_s", evals_per_s (fun _ -> true));
      ("job_s_p50", median all);
      ("warm_job_s_p50", median warm);
      ("cold_job_s_p50", median cold);
      ( "best_ncd_mean",
        ratio (sum !round0) (float_of_int (List.length !round0)) );
      ( "success_rate",
        1.0 -. ratio (float_of_int c.failed) (float_of_int c.attempted) );
      ("setup_s", median setup_times);
      ("peak_rss_mb", peak_rss_mb ());
    ]

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let traced kind =
  let rng = Util.Rng.create !seed in
  let cells = cells_of kind in
  let tel = Telemetry.create () in
  let with_trace f =
    Telemetry.set_global tel;
    Fun.protect ~finally:(fun () -> Telemetry.set_global Telemetry.null) f
  in
  (* the reference runs untraced through the public entry point; the
     composition runs traced, on its own caches for serve-mixed *)
  let reference = set_up kind cells in
  let composed_daemon =
    match kind with
    | Serve_mixed ->
      Some (Bintuner.Server.create ~jobs:nproc ~store_dir:(fresh_store_dir ()) ())
    | Tune_hill | Tune_ga -> None
  in
  let pool =
    match composed_daemon with
    | Some d -> Bintuner.Session.pool (Bintuner.Server.session d)
    | None -> reference.pool
  in
  let seen = Hashtbl.create 256 in
  let c = checker () in
  let traced_wall = ref 0.0 and untraced_wall = ref 0.0 in
  let server_overhead = ref 0.0 and server_wall = ref 0.0 in
  let overhead = ref 0.0 and plain = ref 0.0 in
  let hm = Hashtbl.create 8 in
  let add_hm k (h, m) =
    let h0, m0 = Option.value ~default:(0, 0) (Hashtbl.find_opt hm k) in
    Hashtbl.replace hm k (h0 + h, m0 + m)
  in
  let hit_ratio k =
    match Hashtbl.find_opt hm k with
    | Some (h, m) -> ratio (float_of_int h) (float_of_int (h + m))
    | None -> 0.0
  in
  let run_job j =
    attempt c j (fun () ->
        let reference_outcome =
          match reference.daemon with
          | Some d -> (
            let t0 = now () in
            match Bintuner.Server.handle_line d (request_line j) with
            | [ resp ], true -> (
              let wall = now () -. t0 in
              match parse_response resp with
              | Ok (o, job_wall) ->
                server_overhead := !server_overhead +. (wall -. job_wall);
                server_wall := !server_wall +. wall;
                untraced_wall := !untraced_wall +. job_wall;
                Ok o
              | Error e -> Error e)
            | _ -> Error "unexpected response shape")
          | None ->
            let r =
              Bintuner.Tuner.tune ~arch:j.arch ~pool:reference.pool ~seed:j.tseed
                ~strategy:(Search.of_name j.cell.strategy)
                ~termination:(termination j.budget) ~profile:j.cell.profile
                j.cell.bench
            in
            untraced_wall := !untraced_wall +. r.wall_seconds;
            Ok (of_result r)
        in
        match reference_outcome with
        | Error e -> Error e
        | Ok o ->
          let caches =
            match composed_daemon with
            | Some d -> session_caches seen (Bintuner.Server.session d)
            | None -> one_shot_caches ()
          in
          let r = with_trace (fun () -> compose ~pool ~caches j) in
          traced_wall := !traced_wall +. r.c_wall;
          add_hm "memo" r.memo_hm;
          add_hm "sizecache" r.sizecache_hm;
          add_hm "store" r.store_hm;
          add_hm "objective" r.objective_hm;
          if not j.repeat then begin
            let over, base = replay j r.distinct in
            overhead := !overhead +. over;
            plain := !plain +. base
          end;
          let composed =
            if !perturb && not c.perturbed then begin
              c.perturbed <- true;
              { r.c_outcome with iterations = r.c_outcome.iterations + 1 }
            end
            else r.c_outcome
          in
          if composed <> o then
            Error
              (Printf.sprintf "traced composition outcome %s differs from %s"
                 (outcome_line composed) (outcome_line o))
          else Ok o)
  in
  let rounds = run_rounds kind rng cells run_job in
  let store_stat f =
    match
      Option.bind composed_daemon (fun d ->
          Bintuner.Session.store (Bintuner.Server.session d))
    with
    | Some st -> float_of_int (f st)
    | None -> 0.0
  in
  close_rig reference;
  Option.iter Bintuner.Server.close composed_daemon;
  rm_rf tmp_root;
  (* attribution *)
  let j = float_of_int (Parallel.Pool.size pool) in
  let main k = L.get L.main_s k and lane k = L.get L.lane_s k in
  let wall k = main k +. (lane k /. j) in
  let span name = Telemetry.span_seconds tel name in
  let pass_lane = sum (List.map (fun p -> span ("pass." ^ p)) pass_names) in
  let emit_lane = span "pass.codegen" and resume_lane = span "pipeline.resume" in
  let busy = L.get L.counts "pool.busy" in
  let region = main "pool.region" in
  let counts k = L.get L.counts k in
  let compile_ms = L.samples_of "compile_ms" in
  let self_times =
    [
      ("constraints.repair_s", wall "repair");
      ("pipeline.self_s", (lane "pipeline" -. pass_lane -. emit_lane -. resume_lane) /. j);
    ]
    @ List.map (fun p -> ("pass." ^ p ^ "_s", span ("pass." ^ p) /. j)) reported_passes
    @ [
        ( "pass.other_s",
          (pass_lane
          -. sum (List.map (fun p -> span ("pass." ^ p)) reported_passes))
          /. j );
        ("emit.s", emit_lane /. j);
        ("incremental.lookup_s", wall "incremental");
        ("incremental.restore_s", resume_lane /. j);
        ("memo.s", wall "memo");
        ("code_stream.s", wall "code_stream");
        ("ncd.s", wall "ncd");
        ("objective.s", wall "objective");
        ("search.engine_s", wall "search");
        ("tuner.bookkeeping_s", wall "batch");
        ("tuner.select_s", wall "select");
        ("pool.idle_s", region -. (busy /. j));
        ("binhunt.s", wall "binhunt");
        ("vm.check_s", wall "vm");
      ]
  in
  let unattributed = main "job" +. (lane "task" /. j) in
  let traced_wall = !traced_wall in
  let attributed = sum (List.map snd self_times) +. unattributed in
  let error = ratio (Float.abs (traced_wall -. attributed)) traced_wall in
  printf
    "reconciliation: traced wall %.4f s = %.4f s attributed (%.4f s \
     unattributed), error %.2e\n"
    traced_wall attributed unattributed error;
  (* the reconciliation is one more checked operation: the self times
     must add up to the traced wall within 5 %, leave under 5 % of it
     unattributed, and none may be negative (a double-counted layer).
     Frames nest and idle time is the region's remainder, so the sum
     holds by construction and guards only the bookkeeping; a layer left
     untimed shows in the unattributed share, which is the real check. *)
  c.attempted <- c.attempted + 1;
  if
    error > 0.05
    || ratio unattributed traced_wall > 0.05
    || List.exists (fun (_, v) -> v < -1e-3) self_times
  then begin
    c.failed <- c.failed + 1;
    printf "FAILED reconciliation of the traced run\n"
  end;
  printf "self-time table (share of traced wall):\n";
  List.iter
    (fun (k, v) -> printf "  %-28s %9.4f s %6.2f%%\n" k v (100.0 *. ratio v traced_wall))
    (List.sort (fun (_, a) (_, b) -> compare b a) (("unattributed_s", unattributed) :: self_times));
  printf "server.overhead_s: %.4f\n" !server_overhead;
  printf "objective.s: %.4f\n" (wall "objective");
  printf "incremental.overhead_s: %.4f of %.4f s plain compile\n" !overhead !plain;
  printf "peak_rss_mb: %.1f\n" (peak_rss_mb ());
  print_provenance kind ~rounds ~jobs:c.attempted ~setup_reps:1;
  printf "error_rate: %.4f (%d of %d operations failed)\n"
    (ratio (float_of_int c.failed) (float_of_int c.attempted))
    c.failed c.attempted;
  print_digest c;
  let lookups = counts "incremental.lookups" in
  emit ~correct:(c.failed = 0) ~attempted:c.attempted ~failed:c.failed per_layer_units
    (self_times
    @ [
        ("constraints.repair_calls", counts "constraints.repair_calls");
        ("pipeline.compile_s", lane "pipeline" /. j);
        ("pipeline.compile_calls", counts "pipeline.compile_calls");
        ("pipeline.compile_ms_p50", median compile_ms);
        ("pipeline.compile_ms_p99", percentile compile_ms 0.99);
        ("incremental.lookups", lookups);
        ("incremental.hit_ratio", ratio (counts "incremental.hits") lookups);
        ("incremental.bytes_stored", counts "incremental.bytes_stored");
        ("incremental.overhead_s", !overhead);
        ("incremental.overhead_share", ratio !overhead !plain);
        ("memo.hit_ratio", hit_ratio "memo");
        ("store.hit_ratio", hit_ratio "store");
        ("store.resident_bytes", store_stat Bintuner.Store.bytes);
        ("store.evictions", store_stat Bintuner.Store.evictions);
        ("store.quarantined", store_stat Bintuner.Store.quarantined);
        ("sizecache.hit_ratio", hit_ratio "sizecache");
        ("lz.bytes_in", counts "lz.bytes_in");
        ("search.batches", counts "search.batches");
        ("search.batch_size_p50", median (L.samples_of "batch_size"));
        ("pool.busy_s", busy);
        ("pool.idle_ratio", 1.0 -. ratio busy (j *. region));
        ("binhunt.calls", counts "binhunt.calls");
        ("objective.share", ratio (wall "objective") traced_wall);
        ("objective.hit_ratio", hit_ratio "objective");
        ("server.overhead_share", ratio !server_overhead !server_wall);
        ("unattributed_s", unattributed);
        ("unattributed_share", ratio unattributed traced_wall);
        ("traced_wall_s", traced_wall);
        ("trace_overhead", ratio traced_wall !untraced_wall);
      ])

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let kind =
    match List.assoc_opt !workload_arg workloads with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload " ^ !workload_arg ^ "\n" ^ usage);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if !setup_only_flag then setup_only kind
  else if !trace = 0 then end_to_end kind
  else traced kind
