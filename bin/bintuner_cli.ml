(* The bintuner command-line interface.

     bintuner_cli compile  --bench 462.libquantum --profile gcc --preset O3
     bintuner_cli tune     --bench coreutils --profile gcc
     bintuner_cli diff     --bench openssl --profile llvm --from O3 --to O0
     bintuner_cli ncd      --bench openssl --profile llvm --from O3 --to O0
     bintuner_cli scan     --bench lightaidra
     bintuner_cli list

   Benchmarks are the built-in corpus; pass --source FILE to compile an
   arbitrary MinC translation unit instead. *)

open Cmdliner

(* --profile and --arch go through the library's name lookups, the
   same ones the serve daemon uses *)
let lookup find error name =
  try find name with Not_found -> failwith (error name)

let arch_of = lookup Isa.Insn.arch_of_name (fun s -> "unknown arch " ^ s)

let load_program ~bench ~source =
  match source with
  | Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    ( Minic.Sema.analyze src,
      {
        Corpus.bname = Filename.basename path;
        suite = Corpus.Coreutils;
        source = src;
        workloads = [ [| 0 |]; [| 7 |] ];
      } )
  | None ->
    let b = Corpus.find bench in
    (Corpus.program b, b)

(* common options *)
let bench_arg =
  Arg.(value & opt string "462.libquantum" & info [ "bench" ] ~doc:"Corpus benchmark name.")

let source_arg =
  Arg.(value & opt (some file) None & info [ "source" ] ~doc:"MinC source file (overrides --bench).")

let profile_arg =
  Term.(
    const
      (lookup Toolchain.Flags.find (fun s ->
           "unknown profile " ^ s ^ " (use gcc | llvm)"))
    $ Arg.(value & opt string "gcc" & info [ "profile" ] ~doc:"Compiler profile: gcc | llvm."))

let arch_arg =
  Term.(
    const arch_of
    $ Arg.(value & opt string "x86-64" & info [ "arch" ] ~doc:"Target: x86-64 | x86-32 | arm | mips."))

let lz_level_conv =
  let parse s =
    match Compress.Lz.level_of_string s with
    | l -> Ok l
    | exception Invalid_argument m -> Error (`Msg m)
  in
  let print ppf l = Format.pp_print_string ppf (Compress.Lz.level_name l) in
  Arg.conv (parse, print)

let lz_level_arg =
  Arg.(value
       & opt lz_level_conv (Compress.Lz.default_level ())
       & info [ "lz-level" ]
           ~doc:
             "Match-finder level of the NCD fitness kernel: greedy | chained \
              | chained-<depth>.  greedy is the pre-overhaul kernel, kept \
              bit-for-bit stable; chained (the default) is faster and \
              compresses repetitive code harder.")

let verify_ir_arg =
  Arg.(value & flag
       & info [ "verify-ir" ]
           ~doc:
             "Run the IR verifier after lowering and after every IR pass; \
              abort naming the offending pass if a pass breaks an IR \
              invariant.")

let compile_cmd =
  let preset =
    Arg.(value & opt string "O2" & info [ "preset" ] ~doc:"O0|O1|O2|O3|Os.")
  in
  let run bench source p arch preset verify_ir =
    if verify_ir then Toolchain.Pipeline.verify_default := true;
    let program, b = load_program ~bench ~source in
    let bin = Toolchain.Pipeline.compile_preset p ~arch preset program in
    Printf.printf "%s %s %s (%s): %d bytes code, %d bytes data, %d functions\n"
      b.Corpus.bname p.Toolchain.Flags.profile_name preset
      (Isa.Insn.arch_name arch)
      (String.length bin.Isa.Binary.text)
      (String.length bin.Isa.Binary.data)
      (Array.length bin.Isa.Binary.functions);
    let r = Vm.Machine.run bin ~input:(List.hd b.workloads) in
    Printf.printf "run: exit=%d steps=%d output=%s" r.return_value r.steps
      (Vir.Interp.output_to_string r.output)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a benchmark at a preset and run it.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ arch_arg $ preset
          $ verify_ir_arg)

(* --trace FILE and --perf-profile: run [f] under an enabled telemetry
   instance, then print the summary, flush the counters and close the
   trace, also when [f] raises *)
let with_telemetry ~trace ~prof f =
  if trace = None && not prof then f ()
  else begin
    let channel = Option.map open_out trace in
    Telemetry.set_global
      (Telemetry.create
         ?sink:(Option.map (fun oc -> Telemetry.Channel oc) channel)
         ());
    Fun.protect
      ~finally:(fun () ->
        if prof then print_string (Telemetry.summary (Telemetry.global ()));
        Telemetry.flush (Telemetry.global ());
        Option.iter close_out channel)
      f
  end

let tune_cmd =
  let iterations =
    Arg.(value & opt int 500
         & info [ "max-iterations" ] ~doc:"Search evaluation budget.")
  in
  let strategy_arg =
    Arg.(value
         & opt (enum (List.map (fun n -> (n, n)) Search.all_names)) "ga"
         & info [ "strategy" ]
             ~doc:
               "Search strategy: $(b,ga) (generational genetic algorithm), \
                $(b,hill) (batched steepest-ascent hill climbing), \
                $(b,anneal) (batched simulated annealing), $(b,random) \
                (random-search baseline), or $(b,ensemble) (OpenTuner-style \
                AUC-bandit over the other four).")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ]
             ~doc:
               "Worker domains for the parallel evaluation engine (0 = the \
                machine's recommended domain count).  Results are identical \
                at every value.")
  in
  let db =
    Arg.(value & opt (some string) None
         & info [ "db" ] ~doc:"Append the run to this tuning-database file.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:
               "Stream telemetry events (compile passes, GA generations, pool \
                chunks, fitness/BinHunt spans) to this file as ndjson.")
  in
  let prof =
    Arg.(value & flag
         & info [ "perf-profile" ]
             ~doc:
               "Print an aggregated telemetry summary after tuning, including \
                the compile/NCD/BinHunt/functional-check cost split.")
  in
  let objective_conv =
    let parse s =
      match Search.Objective.parse s with
      | spec -> Ok spec
      | exception Invalid_argument m -> Error (`Msg m)
    in
    let print ppf spec =
      Format.pp_print_string ppf (Search.Objective.to_string spec)
    in
    Arg.conv (parse, print)
  in
  let objective_arg =
    Arg.(value
         & opt objective_conv Search.Objective.default
         & info [ "objective" ]
             ~doc:
               "Fitness axes with optional scalarization weights, \
                comma-separated: $(b,ncd), $(b,gadgets) (negated gadget \
                census), $(b,size) (negated code+data bytes), $(b,evasion) \
                (provenance-classifier distance).  E.g. \
                $(b,ncd,gadgets:0.5).  The default, $(b,ncd), is the \
                historical scalar path, bit-identical to earlier releases; \
                any other spec maintains a Pareto archive and reports the \
                non-dominated front alongside the weighted-sum best.")
  in
  let run bench source p arch lz_level iterations strategy jobs db trace
      prof objectives =
    Compress.Lz.set_default_level lz_level;
    let _, b = load_program ~bench ~source in
    (* read the database before tuning: a malformed file must not cost
       the whole search *)
    let existing =
      match db with
      | Some path when Sys.file_exists path -> (
        try Bintuner.Database.load path
        with Failure m | Sys_error m ->
          Printf.eprintf "tune: cannot read tuning database %s: %s\n" path m;
          exit 1)
      | _ -> []
    in
    let termination =
      { Search.default_termination with max_evaluations = iterations }
    in
    let j = if jobs <= 0 then Parallel.Pool.default_size () else jobs in
    let r =
      with_telemetry ~trace ~prof @@ fun () ->
      let r =
        Parallel.Pool.with_pool j (fun pool ->
            Bintuner.Tuner.tune ~arch ~termination
              ~strategy:(Search.of_name strategy) ~pool ~objectives ~profile:p
              b)
      in
      Printf.printf
        "tuned %s with %s [%s]: %d iterations, fitness NCD %.3f, functional %b\n"
        r.benchmark r.profile_name r.strategy r.iterations r.best_ncd
        r.functional_ok;
      if not (Search.Objective.is_scalar_ncd objectives) then begin
        Printf.printf "objectives: %s  best [%s]\n"
          (String.concat "," r.objectives)
          (String.concat " "
             (List.map (Printf.sprintf "%.3f") (Array.to_list r.best_scores)));
        Printf.printf "pareto front: %d points\n" (List.length r.front);
        List.iter
          (fun (v, f) ->
            Printf.printf "  front %s [%s]\n"
              (Bintuner.Database.vector_to_string v)
              (String.concat " "
                 (List.map (Printf.sprintf "%.3f") (Array.to_list f))))
          r.front
      end;
      let counter = Bintuner.Tuner.counter r in
      Printf.printf "compile memo: %d of %d compile requests served from cache (-j %d)\n"
        (counter "memo.hit") (counter "memo.hit" + counter "memo.miss") j;
      Printf.printf
        "prefix cache: %d of %d snapshot lookups hit (compiles resume \
         mid-pipeline)\n"
        (counter "incr.hit") (counter "incr.hit" + counter "incr.miss");
      List.iter (fun (n, v) -> Printf.printf "  %-3s fitness %.3f\n" n v) r.preset_ncd;
      Printf.printf "flags: %s\n"
        (String.concat " " (Bintuner.Tuner.flags_enabled p r.best_vector));
      r
    in
    match db with
    | None -> ()
    | Some path ->
      Bintuner.Database.save path
        (existing @ [ Bintuner.Database.of_result r p ]);
      Printf.printf "run appended to %s\n" path
  in
  Cmd.v (Cmd.info "tune" ~doc:"Run BinTuner's iterative compilation on a benchmark.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ arch_arg
          $ lz_level_arg $ iterations $ strategy_arg $ jobs $ db $ trace $ prof
          $ objective_arg)

let serve_cmd =
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ]
             ~doc:
               "Worker domains of the shared session pool (0 = the machine's \
                recommended domain count).  Job results are identical at \
                every value.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ]
             ~doc:
               "Serve a Unix domain socket at this path instead of \
                stdin/stdout.")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store" ]
             ~doc:
               "Root directory of the persistent artifact store (created if \
                missing).  Compiled binaries and compressed sizes are written \
                through to it and survive daemon restarts; without it the \
                daemon shares caches across jobs but persists nothing.")
  in
  let store_mb =
    Arg.(value & opt int 256
         & info [ "store-max-mb" ]
             ~doc:"Byte budget of the persistent store, in MiB (LRU-evicted).")
  in
  let memo_mb =
    Arg.(value & opt int 128
         & info [ "memo-max-mb" ]
             ~doc:"Byte budget of the shared compile memo, in MiB.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Stream telemetry events to this file as ndjson (each \
                   job's spans carry its job id).")
  in
  let prof =
    Arg.(value & flag
         & info [ "perf-profile" ]
             ~doc:"Print an aggregated telemetry summary when the daemon \
                   exits.")
  in
  let run jobs socket store_dir store_mb memo_mb trace prof =
    let j = if jobs <= 0 then Parallel.Pool.default_size () else jobs in
    with_telemetry ~trace ~prof @@ fun () ->
    let srv =
      Bintuner.Server.create ~jobs:j ?store_dir
        ~store_max_bytes:(store_mb * 1024 * 1024)
        ~memo_max_bytes:(memo_mb * 1024 * 1024) ()
    in
    Fun.protect
      ~finally:(fun () -> Bintuner.Server.close srv)
      (fun () ->
        match socket with
        | Some path -> Bintuner.Server.serve_unix srv path
        | None -> Bintuner.Server.serve_channel srv stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning daemon: accept requests (tune/status/quit, one \
          request per line, JSON responses) over stdin or a Unix socket, \
          multiplexed onto one shared pool and cache session, optionally \
          backed by a crash-safe persistent artifact store.")
    Term.(const run $ jobs $ socket $ store_dir $ store_mb $ memo_mb $ trace
          $ prof)

let diff_cmd =
  let a = Arg.(value & opt string "O3" & info [ "from" ] ~doc:"First preset.") in
  let b_ = Arg.(value & opt string "O0" & info [ "to" ] ~doc:"Second preset.") in
  let run bench source p arch a b_ =
    let program, _ = load_program ~bench ~source in
    let ba = Toolchain.Pipeline.compile_preset p ~arch a program in
    let bb = Toolchain.Pipeline.compile_preset p ~arch b_ program in
    let m = Diffing.Metrics.compute ba bb in
    Printf.printf "BinHunt difference score (%s vs %s): %.3f\n" a b_
      m.binhunt_score;
    Printf.printf "matched: %s\n" (Diffing.Metrics.to_string m);
    List.iter
      (fun r ->
        Printf.printf "  %-10s Precision@1 = %.2f (%d/%d)\n"
          r.Diffing.Precision.tool r.precision r.hits r.total)
      (Diffing.Precision.evaluate_all ba bb)
  in
  Cmd.v (Cmd.info "diff" ~doc:"Compare two presets with BinHunt and all diffing tools.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ arch_arg $ a $ b_)

let ncd_cmd =
  let a = Arg.(value & opt string "O3" & info [ "from" ] ~doc:"First preset.") in
  let b_ = Arg.(value & opt string "O0" & info [ "to" ] ~doc:"Second preset.") in
  let run bench source p arch lz_level a b_ =
    Compress.Lz.set_default_level lz_level;
    let program, _ = load_program ~bench ~source in
    let ba = Toolchain.Pipeline.compile_preset p ~arch a program in
    let bb = Toolchain.Pipeline.compile_preset p ~arch b_ program in
    Printf.printf "NCD(raw bytes)      = %.3f\n" (Bintuner.Tuner.ncd_of_binaries ba bb);
    Printf.printf "NCD(opcode stream)  = %.3f (the tuner's fitness, level %s)\n"
      (Bintuner.Tuner.fitness_of_binaries ba bb)
      (Compress.Lz.level_name lz_level)
  in
  Cmd.v (Cmd.info "ncd" ~doc:"Normalized compression distance between two presets.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ arch_arg
          $ lz_level_arg $ a $ b_)

let scan_cmd =
  let run bench source p arch =
    let program, _ = load_program ~bench ~source in
    let reference = Toolchain.Pipeline.compile_preset p ~arch "O2" program in
    let goodware =
      List.map
        (fun n ->
          Toolchain.Pipeline.compile_preset p ~arch "O2"
            (Corpus.program (Corpus.find n)))
        [ "429.mcf"; "coreutils"; "openssl" ]
    in
    let fleet = Av.Scanner.train ~goodware ~seed:11 reference in
    List.iter
      (fun preset ->
        let bin = Toolchain.Pipeline.compile_preset p ~arch preset program in
        Printf.printf "%-3s detections: %d/%d\n" preset
          (Av.Scanner.detections fleet bin)
          Av.Scanner.fleet_size)
      Toolchain.Flags.preset_names
  in
  Cmd.v (Cmd.info "scan" ~doc:"Train the AV fleet on the -O2 build and scan every preset.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ arch_arg)

let verify_cmd =
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench" ]
             ~doc:"Restrict the sweep to one benchmark (default: whole corpus).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random-vector seed.")
  in
  let vectors =
    Arg.(value & opt int 3
         & info [ "vectors" ]
             ~doc:"Constraint-repaired random flag vectors per profile.")
  in
  let run bench seed nvec =
    let benches =
      match bench with Some n -> [ Corpus.find n ] | None -> Corpus.all
    in
    let archs = [ Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips ] in
    let total = ref 0 and failed = ref 0 in
    List.iter
      (fun b ->
        let program = Corpus.program b in
        List.iter
          (fun p ->
            let rng = Util.Rng.create seed in
            let random_vectors =
              List.init nvec (fun _ ->
                  let raw =
                    Array.init
                      (Array.length p.Toolchain.Flags.flags)
                      (fun _ -> Util.Rng.bool rng)
                  in
                  Toolchain.Constraints.repair p rng raw)
            in
            List.iter
              (fun arch ->
                let attempt label thunk =
                  incr total;
                  try ignore (thunk ())
                  with Toolchain.Pipeline.Verification_failed msg ->
                    incr failed;
                    Printf.printf "FAIL %s %s %s %s:\n%s\n" b.Corpus.bname
                      p.Toolchain.Flags.profile_name (Isa.Insn.arch_name arch)
                      label msg
                in
                List.iter
                  (fun preset ->
                    attempt preset (fun () ->
                        Toolchain.Pipeline.compile_preset p ~arch preset
                          program))
                  Toolchain.Flags.preset_names;
                List.iteri
                  (fun i v ->
                    attempt
                      (Printf.sprintf "random-%d" i)
                      (fun () ->
                        Toolchain.Pipeline.compile_flags p ~arch v program))
                  random_vectors)
              archs)
          Toolchain.Flags.profiles)
      benches;
    Printf.printf "verified %d compiles over %d benchmarks: %d failure(s)\n"
      !total (List.length benches) !failed;
    if !failed > 0 then exit 1
  in
  let run bench seed nvec =
    Toolchain.Pipeline.verify_default := true;
    Fun.protect
      ~finally:(fun () -> Toolchain.Pipeline.verify_default := false)
      (fun () -> run bench seed nvec)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Compile the corpus under every preset, profile, arch and a few \
          random valid flag vectors with the IR verifier on after every \
          pass.")
    Term.(const run $ bench $ seed $ vectors)

let analyze_cmd =
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench" ]
             ~doc:"Restrict linting to one benchmark (default: whole corpus).")
  in
  let allowlist =
    Arg.(value & opt (some file) None
         & info [ "allowlist" ]
             ~doc:
               "File of known findings (one per line, as printed); findings \
                on the list are suppressed and the exit status only reflects \
                new ones.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit the findings as one machine-readable JSON object \
                (findings with benchmark/func/category/detail/suppressed, \
                plus fresh and suppressed counts) instead of the line \
                rendering.  Exit status is unchanged: nonzero iff any \
                fresh finding.")
  in
  let run bench source allowlist json =
    let allowed = Hashtbl.create 64 in
    (match allowlist with
    | None -> ()
    | Some path ->
      let ic = open_in path in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && not (String.length line > 0 && line.[0] = '#') then
             Hashtbl.replace allowed line ()
         done
       with End_of_file -> ());
      close_in ic);
    let benches =
      match (bench, source) with
      | _, Some _ ->
        let program, b = load_program ~bench:"" ~source in
        [ (b, program) ]
      | Some n, None ->
        let b = Corpus.find n in
        [ (b, Corpus.program b) ]
      | None, None -> List.map (fun b -> (b, Corpus.program b)) Corpus.all
    in
    let fresh = ref 0 and suppressed = ref 0 in
    let collected = ref [] in
    List.iter
      (fun ((b : Corpus.benchmark), program) ->
        (* lint the raw lowering: -O0 IR, before any pass can fold away a
           source-level oddity the lint is meant to flag *)
        let ir =
          Vir.Lower.lower_program
            ~options:
              { Vir.Lower.merge_conditionals = false; vectorize = false }
            program
        in
        List.iter
          (fun (f : Analysis.Lint.finding) ->
            let line =
              Printf.sprintf "%s/%s" b.Corpus.bname
                (Analysis.Lint.finding_to_string f)
            in
            let supp = Hashtbl.mem allowed line in
            if supp then incr suppressed else incr fresh;
            if json then
              collected :=
                Util.Json.Obj
                  [
                    ("benchmark", Util.Json.Str b.Corpus.bname);
                    ("func", Util.Json.Str f.func);
                    ("category", Util.Json.Str f.category);
                    ("detail", Util.Json.Str f.detail);
                    ("suppressed", Util.Json.Bool supp);
                  ]
                :: !collected
            else if not supp then print_endline line)
          (Analysis.Lint.lint_program ir))
      benches;
    if json then
      Util.Json.to_channel stdout
        (Util.Json.Obj
           [
             ("findings", Util.Json.List (List.rev !collected));
             ("fresh", Util.Json.Int !fresh);
             ("suppressed", Util.Json.Int !suppressed);
           ])
    else
      Printf.printf "lint: %d finding(s), %d suppressed by allowlist\n" !fresh
        !suppressed;
    if !fresh > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the pedantic MinC lint (unused locals, dead stores, \
          always-true conditions, unreachable switch arms) over the corpus.")
    Term.(const run $ bench $ source_arg $ allowlist $ json_flag)

let inspect_cmd =
  let preset =
    Arg.(value & opt string "O2" & info [ "preset" ] ~doc:"O0|O1|O2|O3|Os.")
  in
  let archs =
    Term.(
      const (function
        | "all" -> [ Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips ]
        | a -> [ arch_of a ])
      $ Arg.(value & opt string "x86-64"
             & info [ "arch" ]
                 ~doc:"Target: x86-64 | x86-32 | arm | mips | all."))
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Inspect the whole corpus (overrides --bench/--source).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ]
             ~doc:
               "Write the reports as a JSON array to this file ($(b,-) = \
                stdout) instead of printing the human summaries.")
  in
  let gadget_k =
    Arg.(value & opt int Binsight.Gadgets.default_k
         & info [ "gadget-k" ]
             ~doc:"Maximum instructions per gadget in the census.")
  in
  let run bench source p archs preset all json gadget_k =
    let benches =
      if all then List.map (fun b -> (Corpus.program b, b)) Corpus.all
      else [ load_program ~bench ~source ]
    in
    let mismatches = ref 0 in
    let reports =
      (* Always compile fresh with ground-truth boundary export: the
         emit-snapshot cache cannot serve boundary-carrying compiles. *)
      List.concat_map
        (fun (program, (b : Corpus.benchmark)) ->
          List.map
            (fun arch ->
              let boundaries = Hashtbl.create 64 in
              let bin =
                Toolchain.Pipeline.compile_preset p ~arch ~boundaries preset
                  program
              in
              let r =
                Binsight.Report.inspect ~bench:b.Corpus.bname ~preset
                  ~gadget_k ~ground_truth:boundaries bin
              in
              mismatches := !mismatches + Binsight.Report.mismatch_count r;
              r)
            archs)
        benches
    in
    (match json with
    | None ->
      List.iter (fun r -> print_string (Binsight.Report.summary r)) reports
    | Some path ->
      let j = Util.Json.List (List.map Binsight.Report.to_json reports) in
      if path = "-" then Util.Json.to_channel stdout j
      else begin
        let oc = open_out path in
        Util.Json.to_channel oc j;
        close_out oc;
        Printf.printf "wrote %d report(s) to %s\n" (List.length reports) path
      end);
    if !mismatches > 0 then begin
      Printf.eprintf "inspect: %d disassembly mismatch(es)\n" !mismatches;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Statically analyze compiled binaries: verified disassembly \
          (recursive descent cross-checked against the linear sweep and \
          the compiler's true instruction boundaries), gadget census, \
          call-graph reachability, stack-depth bounds and provenance \
          features.  Exits nonzero on any disassembly mismatch.")
    Term.(const run $ bench_arg $ source_arg $ profile_arg $ archs $ preset
          $ all $ json $ gadget_k)

(* The optimizer-pass smoke gate: compile the whole corpus per profile at
   an -O2-equivalent vector with the flag-gated analysis passes enabled,
   and require every pass's telemetry counter to fire at least once.  A
   pass that never fires anywhere is a dead knob in the search space —
   exactly the regression this gate (run from tools/ci.sh) exists to
   catch. *)
let passfire_cmd =
  let counters =
    [
      ("-ftree-ccp", "-fsccp", "pass.sccp.folds");
      ("-ftree-pre", "-fnewgvn", "pass.gvn.replaced");
      ("-ftree-loop-im", "-flicm-aggressive", "pass.licm_dom.hoisted");
    ]
  in
  let run () =
    let failures = ref 0 in
    List.iter
      (fun p ->
        let vector = Array.copy (Option.get (Toolchain.Flags.preset p "O2")) in
        List.iter
          (fun (gcc_name, llvm_name, _) ->
            let name =
              if p.Toolchain.Flags.profile_name = "gcc-10.2" then gcc_name
              else llvm_name
            in
            vector.(Toolchain.Flags.flag_index p name) <- true)
          counters;
        if not (Toolchain.Constraints.valid p vector) then
          failwith "passfire: O2 + new passes is not a valid vector";
        let t = Telemetry.create () in
        Telemetry.set_global t;
        List.iter
          (fun b ->
            ignore
              (Toolchain.Pipeline.compile_flags p vector (Corpus.program b)))
          Corpus.all;
        Telemetry.set_global Telemetry.null;
        List.iter
          (fun (_, _, counter) ->
            let v = Telemetry.counter_value t counter in
            Printf.printf "%-9s %-22s %d\n" p.Toolchain.Flags.profile_name
              counter v;
            if v = 0 then incr failures)
          counters)
      Toolchain.Flags.profiles;
    if !failures > 0 then begin
      Printf.printf "passfire: %d counter(s) never fired\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "passfire"
       ~doc:
         "Compile the corpus at -O2 plus the flag-gated analysis passes and \
          check each pass's telemetry counter fires at least once per \
          profile.")
    Term.(const run $ const ())

let list_cmd =
  let run () =
    List.iter
      (fun b ->
        Printf.printf "%-18s %s\n" b.Corpus.bname (Corpus.suite_name b.suite))
      Corpus.all;
    Printf.printf "\nprofiles: %s\n"
      (String.concat ", "
         (List.map
            (fun p ->
              Printf.sprintf "%s (%d flags)" p.Toolchain.Flags.profile_name
                (Array.length p.flags))
            Toolchain.Flags.profiles))
  in
  Cmd.v (Cmd.info "list" ~doc:"List corpus benchmarks and compiler profiles.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "bintuner_cli" ~version:"1.0.0"
      ~doc:"Auto-tuning of binary code differences (PLDI'21 reproduction)."
  in
  exit (Cmd.eval (Cmd.group info [ compile_cmd; tune_cmd; serve_cmd; diff_cmd; ncd_cmd; scan_cmd; verify_cmd; analyze_cmd; inspect_cmd; passfire_cmd; list_cmd ]))
