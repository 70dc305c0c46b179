module AO = Passes.Ast_opt
module IO = Passes.Ir_opt
module C = Passes.Cleanup

(* [tpass] times one whole-program AST pass; [fpass] times one IR pass
   over one function.  Both are plain pass-throughs when the global
   telemetry instance is disabled (the default). *)
let tpass name f ast = Telemetry.with_span ("pass." ^ name) (fun () -> f ast)

let fpass name f func =
  Telemetry.with_span ("pass." ^ name) (fun () -> f func)

(* --- IR verification gate (CLI --verify-ir, bench -verify) --- *)

let verify_default = ref false

exception Verification_failed of string

(* Test-only: after the named pass runs on a function, apply the mutation.
   Lets the test suite plant a miscompile inside a specific pass and assert
   the verifier attributes the failure to that pass name. *)
let test_break : (string * (Vir.Ir.func -> unit)) option ref = ref None

let verify_failed ~pass ~where detail =
  raise
    (Verification_failed
       (Printf.sprintf "IR verification failed after pass '%s'%s:\n%s" pass
          where detail))

let check_program ~verify ~where pass ir =
  if verify then
    Telemetry.with_span "verify.ir" (fun () ->
        match Analysis.Verifier.verify_program ir with
        | [] -> ()
        | errs ->
          verify_failed ~pass ~where (Analysis.Verifier.errors_to_string errs))

let check_func ~verify ~where pass ir f =
  (match !test_break with
  | Some (name, mutate) when name = pass -> mutate f
  | Some _ | None -> ());
  if verify then
    Telemetry.with_span "verify.ir" (fun () ->
        match Analysis.Verifier.verify_func ir f with
        | [] -> ()
        | errs ->
          verify_failed ~pass ~where (Analysis.Verifier.errors_to_string errs))

(* --- the incremental-compilation seam --- *)

type snapshot_store = {
  find : string -> string option;
  store : string -> string -> unit;
}

(* What flows between steps.  Both constructors carry closure-free plain
   data, so a stage snapshot is one [Marshal] round-trip and restoring it
   yields a fresh deep copy no other compile aliases. *)
type stage =
  | Ast_stage of Minic.Ast.program
  | Ir_stage of Vir.Ir.program

(* One pipeline step.  [skey] is the step's stable identity — the pass
   name plus every parameter that changes its behaviour — and is all the
   prefix keys hash, so two flag vectors that agree on a prefix of
   resolved steps share that prefix's snapshots no matter how their raw
   bits differ. *)
type step = {
  skey : string;
  run : stage -> stage;
}

(* The configuration, flattened to its canonical step list: AST passes in
   the fixed order, lowering, then each enabled IR pass applied to every
   function (pass-major, not function-major — so a whole-program state
   exists after every pass and can be snapshotted), then the program-level
   function reorder.  Codegen is not a step; it is keyed separately by
   {!compile} because its inputs (arch, codegen options, labels) are not
   part of the IR prefix. *)
let plan ~verify ~where (cfg : Config.t) : step list =
  let steps = ref [] in
  let add skey run = steps := { skey; run } :: !steps in
  let ast_step name skey f =
    add skey (fun st ->
        match st with
        | Ast_stage a -> Ast_stage (tpass name f a)
        | Ir_stage _ -> invalid_arg "Pipeline: AST step after lowering")
  in
  let ir_step name skey pass =
    add skey (fun st ->
        match st with
        | Ir_stage ir ->
          List.iter
            (fun f ->
              fpass name pass f;
              check_func ~verify ~where name ir f)
            ir.Vir.Ir.funcs;
          Ir_stage ir
        | Ast_stage _ -> invalid_arg "Pipeline: IR step before lowering")
  in
  (* --- AST-level, in a fixed canonical order --- *)
  if cfg.instrument then ast_step "instrument" "instrument" AO.instrument;
  if cfg.inline_small || cfg.inline_big || cfg.expand_builtins then
    ast_step "normalize_calls" "normalize_calls" AO.normalize_calls;
  if cfg.expand_builtins then
    ast_step "expand_builtins" "expand_builtins" AO.expand_builtins;
  if cfg.inline_big then
    ast_step "inline"
      (Printf.sprintf "inline:%d:%d" cfg.inline_big_threshold cfg.inline_rounds)
      (AO.inline ~max_size:cfg.inline_big_threshold ~rounds:cfg.inline_rounds)
  else if cfg.inline_small then
    ast_step "inline"
      (Printf.sprintf "inline:%d:%d" cfg.inline_small_threshold
         cfg.inline_rounds)
      (AO.inline ~max_size:cfg.inline_small_threshold ~rounds:cfg.inline_rounds);
  if cfg.unswitch then ast_step "unswitch" "unswitch" AO.unswitch;
  if cfg.distribute then ast_step "distribute" "distribute" AO.distribute;
  if cfg.unroll_and_jam then
    ast_step "unroll_and_jam" "unroll_and_jam" AO.unroll_and_jam;
  if cfg.unroll then
    ast_step "unroll"
      (Printf.sprintf "unroll:%d:%d" cfg.unroll_factor cfg.full_unroll_limit)
      (AO.unroll ~factor:cfg.unroll_factor ~full_limit:cfg.full_unroll_limit);
  if cfg.peel then ast_step "peel" "peel" AO.peel;
  (* --- lowering --- *)
  add
    (Printf.sprintf "lower:%b:%b" cfg.merge_conditionals cfg.vectorize)
    (fun st ->
      match st with
      | Ast_stage a ->
        let ir =
          Telemetry.with_span "pass.lower" (fun () ->
              Vir.Lower.lower_program
                ~options:
                  {
                    Vir.Lower.merge_conditionals = cfg.merge_conditionals;
                    vectorize = cfg.vectorize;
                  }
                a)
        in
        check_program ~verify ~where "lower" ir;
        Ir_stage ir
      | Ir_stage _ -> invalid_arg "Pipeline: lowering after lowering");
  (* --- IR-level --- *)
  (* even -O0 emits structurally merged straight-line code: trivial
     jump chains from lowering never survive a real compiler *)
  ir_step "simplify_cfg" "simplify_cfg" C.simplify_cfg;
  if cfg.baseline then ir_step "baseline" "baseline" C.run_baseline;
  if cfg.sccp then ir_step "sccp" "sccp" Passes.Sccp.run;
  if cfg.strength_reduce then begin
    ir_step "strength_reduce" "strength_reduce" IO.strength_reduce;
    if cfg.baseline then begin
      ir_step "lvn" "lvn" C.lvn;
      ir_step "dce" "dce" C.dce
    end
  end;
  if cfg.licm then ir_step "licm" "licm" IO.licm;
  if cfg.aggressive_licm then
    ir_step "licm_dom" "licm_dom" Passes.Licm_dom.run;
  if cfg.gvn then ir_step "gvn" "gvn" Passes.Gvn.run;
  if cfg.if_convert then ir_step "if_convert" "if_convert" IO.if_convert;
  if cfg.slp then ir_step "slp_vectorize" "slp_vectorize" IO.slp_vectorize;
  if cfg.extra_lvn then begin
    ir_step "lvn" "lvn" C.lvn;
    ir_step "dce" "dce" C.dce
  end;
  if cfg.tail_call then ir_step "tail_call" "tail_call" IO.tail_call;
  if cfg.branch_count_reg then
    ir_step "branch_count_reg" "branch_count_reg" IO.branch_count_reg;
  if cfg.reorder_blocks then
    ir_step "reorder_blocks" "reorder_blocks" IO.reorder_blocks;
  if cfg.partition then ir_step "partition" "partition" IO.partition_blocks;
  if cfg.if_convert_late then
    ir_step "if_convert_late" "if_convert_late" IO.if_convert;
  if cfg.late_cleanup && cfg.baseline then
    ir_step "late_cleanup" "late_cleanup" C.run_baseline;
  if cfg.reorder_functions then
    add "reorder_functions" (fun st ->
        match st with
        | Ir_stage ir ->
          Telemetry.with_span "pass.reorder_functions" (fun () ->
              IO.reorder_functions ir);
          check_program ~verify ~where "reorder_functions" ir;
          Ir_stage ir
        | Ast_stage _ -> invalid_arg "Pipeline: IR step before lowering");
  List.rev !steps

(* --- prefix keys --- *)

(* The per-AST digest is a 1-slot physical-equality cache per domain: the
   tuner compiles the same AST value thousands of times, and marshaling
   it once per compile just to rediscover the same digest would tax the
   warm path the snapshots exist to shorten. *)
let ast_digest_slot : (Minic.Ast.program * string) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let program_digest (ast : Minic.Ast.program) =
  let slot = Domain.DLS.get ast_digest_slot in
  match !slot with
  | Some (a, d) when a == ast -> d
  | _ ->
    let d = Digest.string (Marshal.to_string ast []) in
    slot := Some (ast, d);
    d

(* The chain seed carries everything the step keys do not: the program
   itself, the profile, and the target arch.  Arch and profile are
   semantically load-bearing — codegen snapshots embed both in the
   emitted binary — so leaving them out would let two profiles (or two
   arches) that happen to resolve the same step list poison each other's
   entries.  The staleness regression tests pin this down. *)
let cache_seed ~profile ~arch ast =
  Digest.string
    (program_digest ast ^ "|" ^ profile ^ "|" ^ Isa.Insn.arch_name arch)

(* key_0 covers the seed plus step 0; key_{i} = H(key_{i-1} | skey_i)
   thereafter, so a key names the exact (program, profile, arch, step
   prefix) that produced the snapshot stored under it. *)
let prefix_keys ~seed steps =
  let keys = Array.make (List.length steps) "" in
  let prev = ref seed in
  List.iteri
    (fun i s ->
      let k = Digest.string (!prev ^ "|" ^ s.skey) in
      keys.(i) <- k;
      prev := k)
    steps;
  keys

let snapshot_of_stage st = Marshal.to_string st []

let stage_of_snapshot s : stage = Marshal.from_string s 0

(* Run the step list over [ast], resuming from the longest prefix the
   store still holds.  A restored IR stage passes the whole-program
   verifier before any further pass touches it (when verification is
   on), so `--verify-ir` gates every resumed prefix, not just freshly
   computed ones. *)
let run_plan ~verify ~where ?snapshot ~seed steps ast =
  let finish = function
    | Ir_stage ir -> ir
    | Ast_stage _ -> invalid_arg "Pipeline: plan ended before lowering"
  in
  match snapshot with
  | None -> finish (List.fold_left (fun st s -> s.run st) (Ast_stage ast) steps)
  | Some store ->
    let steps_a = Array.of_list steps in
    let n = Array.length steps_a in
    let keys = prefix_keys ~seed steps in
    let rec probe i =
      if i < 0 then None
      else
        match store.find keys.(i) with
        | Some data -> Some (i, data)
        | None -> probe (i - 1)
    in
    let start_idx, stage0 =
      match probe (n - 1) with
      | Some (i, data) ->
        let st =
          Telemetry.with_span
            ~attrs:
              [
                ("compile.resumed_at", string_of_int (i + 1));
                ("of_steps", string_of_int n);
              ]
            "pipeline.resume"
            (fun () ->
              let st = stage_of_snapshot data in
              (match st with
              | Ir_stage ir ->
                check_program ~verify ~where
                  ("resume:" ^ steps_a.(i).skey)
                  ir
              | Ast_stage _ -> ());
              st)
        in
        Telemetry.set_gauge "compile.resumed_at" (float_of_int (i + 1));
        (i + 1, st)
      | None ->
        Telemetry.set_gauge "compile.resumed_at" 0.0;
        (0, Ast_stage ast)
    in
    let stage = ref stage0 in
    for j = start_idx to n - 1 do
      stage := steps_a.(j).run !stage;
      store.store keys.(j) (snapshot_of_stage !stage)
    done;
    finish !stage

let apply_passes (cfg : Config.t) (ast : Minic.Ast.program) : Vir.Ir.program =
  let verify = !verify_default and where = "" in
  run_plan ~verify ~where ~seed:"" (plan ~verify ~where cfg) ast

let codegen_options_digest config =
  Digest.string (Marshal.to_string config.Config.codegen [])

let compile ~config ~flag_desc ?snapshot ?boundaries ~arch ~profile ~opt_label
    ast =
  Telemetry.with_span
    ~attrs:
      [
        ("profile", profile);
        ("arch", Isa.Insn.arch_name arch);
        ("opt", opt_label);
      ]
    "compile"
    (fun () ->
      let verify = !verify_default in
      let where =
        Printf.sprintf " [profile=%s arch=%s opt=%s%s]" profile
          (Isa.Insn.arch_name arch) opt_label flag_desc
      in
      let steps = plan ~verify ~where config in
      let emitted seed =
        let ir = run_plan ~verify ~where ?snapshot ~seed steps ast in
        Telemetry.with_span "pass.codegen" (fun () ->
            Codegen.Emit.compile_program
              ~options:config.Config.codegen
              ?boundaries ~arch ~profile ~opt_label ir)
      in
      match snapshot with
      | None -> emitted ""
      | Some store -> (
        let seed = cache_seed ~profile ~arch ast in
        let keys = prefix_keys ~seed steps in
        let final_key =
          if Array.length keys = 0 then seed
          else keys.(Array.length keys - 1)
        in
        (* The codegen snapshot closes the chain: its key adds everything
           codegen reads that the IR prefix does not carry.  [opt_label]
           is included because the emitted binary embeds it. *)
        let emit_key =
          Digest.string
            (final_key ^ "|emit|" ^ opt_label ^ "|"
           ^ codegen_options_digest config)
        in
        (* a verified build re-runs the gated pipeline end to end so the
           verifier actually sees IR; only the IR-stage snapshots (which
           are verified on restore) may shorten it.  A boundary-oracle
           build must also run codegen for real — a restored binary
           carries no instruction-boundary ground truth. *)
        let restored =
          if verify || boundaries <> None then None else store.find emit_key
        in
        match restored with
        | Some data -> (Marshal.from_string data 0 : Isa.Binary.t)
        | None ->
          let bin = emitted seed in
          store.store emit_key (Marshal.to_string bin []);
          bin))

let flag_vector_desc vector =
  " flags="
  ^ String.concat ""
      (List.map (fun b -> if b then "1" else "0") (Array.to_list vector))

let compile_flags p ?(arch = Isa.Insn.X86_64) ?snapshot vector ast =
  let config = Flags.resolve p vector in
  compile ~config ~flag_desc:(flag_vector_desc vector) ?snapshot ~arch
    ~profile:p.Flags.profile_name ~opt_label:"custom" ast

let compile_preset p ?(arch = Isa.Insn.X86_64) ?snapshot ?boundaries name ast =
  match name with
  | "O0" ->
    compile ~config:Config.o0 ~flag_desc:"" ?snapshot ?boundaries ~arch
      ~profile:p.Flags.profile_name ~opt_label:"-O0" ast
  | _ -> (
    match Flags.preset p name with
    | Some vector ->
      let config = Flags.resolve p vector in
      compile ~config ~flag_desc:(flag_vector_desc vector) ?snapshot
        ?boundaries ~arch ~profile:p.Flags.profile_name
        ~opt_label:("-" ^ name) ast
    | None -> invalid_arg ("Pipeline.compile_preset: unknown preset " ^ name))
