type flag = {
  name : string;
  apply : Config.t -> Config.t;
  description : string;
}

type constraint_decl =
  | Requires of string * string
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

let mk name description apply = { name; apply; description }

(* ------------------------------------------------------------------ *)
(* Flag effect library (shared between profiles)                       *)
(* ------------------------------------------------------------------ *)

open Config

let fx_inline_small c =
  { c with inline_small = true; inline_small_threshold = max c.inline_small_threshold 18 }

let fx_inline_big c = { c with inline_big = true }

let fx_inline_rounds2 c = { c with inline_rounds = max c.inline_rounds 2 }

(* inlining functions called once is size-blind in GCC; here it enables
   small-function inlining at the tighter default threshold *)
let fx_inline_once c = { c with inline_small = true }

let fx_inline_limit c = { c with inline_big_threshold = 120 }

let fx_unroll c = { c with unroll = true }

let fx_unroll_all c = { c with full_unroll_limit = 16 }

let fx_unroll8 c = { c with unroll_factor = 8 }

let fx_peel c = { c with peel = true }

let fx_unswitch c = { c with unswitch = true }

let fx_distribute c = { c with distribute = true }

let fx_uaj c = { c with unroll_and_jam = true }

let fx_builtin c = { c with expand_builtins = true }

let fx_instrument c = { c with instrument = true }

let fx_vectorize c = { c with vectorize = true }

let fx_slp c = { c with slp = true }

let fx_vec_both c = { c with vectorize = true; slp = true }

let fx_merge_cond c = { c with merge_conditionals = true }

let fx_extra_lvn c = { c with extra_lvn = true }

let fx_late_cleanup c = { c with late_cleanup = true }

let fx_slsr c = { c with strength_reduce = true }

let fx_ifcvt c = { c with if_convert = true }

let fx_ifcvt2 c = { c with if_convert_late = true }

let fx_licm c = { c with licm = true }

let fx_sccp c = { c with sccp = true }

let fx_gvn c = { c with gvn = true }

let fx_aggressive_licm c = { c with aggressive_licm = true }

let fx_tail c = { c with tail_call = true }

let fx_bcr c = { c with branch_count_reg = true }

let fx_reorder_blocks c = { c with reorder_blocks = true }

let fx_partition c = { c with partition = true }

let fx_reorder_funcs c = { c with reorder_functions = true }

(* code generation flags update the [Codegen.Emit.options] the config
   carries *)
let fx_codegen f c = { c with codegen = f c.codegen }

let fx_jump_tables =
  fx_codegen (fun o -> { o with Codegen.Emit.switch_strategy = Jump_table })

let fx_peephole _name c = c  (* gate flag: effect comes via fpeephole2 *)

let fx_peephole2 = fx_codegen (fun o -> { o with peephole = true })

let fx_align_funcs = fx_codegen (fun o -> { o with align_functions = true })

let fx_align_loops = fx_codegen (fun o -> { o with align_loops = true })

let fx_omit_fp = fx_codegen (fun o -> { o with omit_frame_pointer = true })

let fx_realign = fx_codegen (fun o -> { o with stack_realign = true })

let fx_long_call = fx_codegen (fun o -> { o with long_calls = true })

let fx_pcc_ret = fx_codegen (fun o -> { o with return_reg = 5 })

let fx_reg_ret = fx_codegen (fun o -> { o with return_reg = 0 })

let fx_call_used =
  fx_codegen (fun o ->
      { o with allocatable_regs = max 6 (o.allocatable_regs - 1) })

(* ------------------------------------------------------------------ *)
(* GCC 10.2 profile                                                    *)
(* ------------------------------------------------------------------ *)

let gcc_flag_list =
  [
    mk "-finline-small-functions" "inline callees smaller than a call" fx_inline_small;
    mk "-finline-functions" "inline all suitable functions" fx_inline_big;
    mk "-fpartial-inlining" "extra inlining round" fx_inline_rounds2;
    mk "-finline-functions-called-once" "inline single-call-site functions" fx_inline_once;
    mk "-finline-limit-100" "raise the inlining size limit" fx_inline_limit;
    mk "-fearly-inlining" "inline before the loop passes" fx_inline_rounds2;
    mk "-funroll-loops" "unroll counted loops" fx_unroll;
    mk "-funroll-all-loops" "also fully unroll larger constant trip counts" fx_unroll_all;
    mk "-funroll-max-times-8" "unroll by factor 8" fx_unroll8;
    mk "-fpeel-loops" "peel the first iteration" fx_peel;
    mk "-funswitch-loops" "hoist invariant conditionals out of loops" fx_unswitch;
    mk "-ftree-loop-distribute-patterns" "split memset-like loop prefixes" fx_distribute;
    mk "-floop-unroll-and-jam" "unroll outer loop and fuse inner bodies" fx_uaj;
    mk "-fbuiltin" "expand builtin string/memory functions" fx_builtin;
    mk "-finstrument-functions" "insert entry/exit instrumentation" fx_instrument;
    mk "-ftree-vectorize" "enable loop and SLP vectorization" fx_vec_both;
    mk "-ftree-loop-vectorize" "vectorize counted loops" fx_vectorize;
    mk "-ftree-slp-vectorize" "vectorize straight-line stores" fx_slp;
    mk "-fssa-phiopt" "merge pure conditional operands bitwise" fx_merge_cond;
    mk "-fcse-follow-jumps" "extra value-numbering round" fx_extra_lvn;
    mk "-frerun-cse-after-loop" "cleanup after the loop passes" fx_late_cleanup;
    mk "-ftree-slsr" "strength-reduce mul/div/mod by constants" fx_slsr;
    mk "-fif-conversion" "convert branches to conditional moves" fx_ifcvt;
    mk "-fif-conversion2" "second if-conversion after layout" fx_ifcvt2;
    mk "-fmove-loop-invariants" "loop-invariant code motion" fx_licm;
    mk "-foptimize-sibling-calls" "tail-call optimization" fx_tail;
    mk "-fbranch-count-reg" "decrement-and-branch loop instruction" fx_bcr;
    mk "-freorder-blocks" "lay blocks out in reverse postorder" fx_reorder_blocks;
    mk "-freorder-blocks-and-partition" "move cold blocks behind hot ones" fx_partition;
    mk "-freorder-functions" "emit functions by call frequency" fx_reorder_funcs;
    mk "-fjump-tables" "lower dense switches through a jump table" fx_jump_tables;
    mk "-fpeephole" "window peephole (gate)" (fx_peephole "gcc");
    mk "-fpeephole2" "peephole after register allocation" fx_peephole2;
    mk "-falign-functions" "pad function entries to 16 bytes" fx_align_funcs;
    mk "-falign-loops" "pad loop headers to 16 bytes" fx_align_loops;
    mk "-fomit-frame-pointer" "free the frame-pointer register" fx_omit_fp;
    mk "-mstackrealign" "realign the stack in prologues" fx_realign;
    mk "-mlong-call" "call through a register" fx_long_call;
    mk "-fpcc-struct-return" "return values in the alternate ABI register" fx_pcc_ret;
    mk "-freg-struct-return" "return values in the default register" fx_reg_ret;
    mk "-fcall-used-r8" "treat r8 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r9" "treat r9 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r10" "treat r10 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r11" "treat r11 as clobbered by calls" fx_call_used;
    mk "-ftree-ccp" "sparse conditional constant propagation" fx_sccp;
    mk "-ftree-pre" "global value numbering / redundancy elimination" fx_gvn;
    mk "-ftree-loop-im" "aggressive loop-invariant chain hoisting" fx_aggressive_licm;
  ]

let gcc_constraints =
  [
    Requires ("-fpartial-inlining", "-finline-functions");
    Requires ("-finline-limit-100", "-finline-functions");
    Requires ("-funroll-all-loops", "-funroll-loops");
    Requires ("-funroll-max-times-8", "-funroll-loops");
    Requires ("-ftree-loop-vectorize", "-ftree-vectorize");
    Requires ("-ftree-slp-vectorize", "-ftree-vectorize");
    Requires ("-fif-conversion2", "-fif-conversion");
    Requires ("-freorder-blocks-and-partition", "-freorder-blocks");
    Requires ("-fpeephole2", "-fpeephole");
    Conflicts ("-mstackrealign", "-fomit-frame-pointer");
    Conflicts ("-fpcc-struct-return", "-freg-struct-return");
    Conflicts ("-floop-unroll-and-jam", "-ftree-loop-distribute-patterns");
    (* GVN leaves copies behind and relies on the post-loop CSE round to
       propagate them; aggressive LICM extends the baseline loop pass *)
    Requires ("-ftree-pre", "-frerun-cse-after-loop");
    Requires ("-ftree-loop-im", "-fmove-loop-invariants");
    Conflicts ("-ftree-ccp", "-finstrument-functions");
  ]

let gcc_o1 =
  [
    "-fjump-tables";
    "-ftree-slsr";
    "-fif-conversion";
    "-fmove-loop-invariants";
    "-fbranch-count-reg";
    "-fbuiltin";
    "-fomit-frame-pointer";
    "-fssa-phiopt";
    "-finline-functions-called-once";
    "-fpeephole";
  ]

let gcc_o2 =
  gcc_o1
  @ [
      "-finline-small-functions";
      "-fcse-follow-jumps";
      "-frerun-cse-after-loop";
      "-foptimize-sibling-calls";
      "-freorder-blocks";
      "-freorder-functions";
      "-fpeephole2";
      "-falign-functions";
      "-falign-loops";
      "-fif-conversion2";
    ]

let gcc_o3 =
  gcc_o2
  @ [
      "-finline-functions";
      "-fpartial-inlining";
      "-funswitch-loops";
      "-ftree-vectorize";
      "-ftree-loop-vectorize";
      "-ftree-slp-vectorize";
      "-ftree-loop-distribute-patterns";
      "-fpeel-loops";
    ]

(* -Os: -O2 minus the code-size-increasing flags (alignment padding,
   if-conversion duplication is kept — it shrinks code here). *)
let gcc_os =
  List.filter
    (fun f -> not (List.mem f [ "-falign-functions"; "-falign-loops" ]))
    gcc_o2

(* ------------------------------------------------------------------ *)
(* LLVM 11.0 profile                                                   *)
(* ------------------------------------------------------------------ *)

let llvm_flag_list =
  [
    mk "-finline-functions" "inline all suitable functions" fx_inline_big;
    mk "-finline-hint-functions" "inline small callees" fx_inline_small;
    mk "-finline-aggressive" "extra inlining round" fx_inline_rounds2;
    mk "-funroll-loops" "unroll counted loops" fx_unroll;
    mk "-funroll-count-8" "unroll by factor 8" fx_unroll8;
    mk "-funroll-full" "fully unroll larger constant trip counts" fx_unroll_all;
    mk "-floop-unswitch" "hoist invariant conditionals out of loops" fx_unswitch;
    mk "-floop-distribute" "split memset-like loop prefixes" fx_distribute;
    mk "-floop-unroll-and-jam" "unroll outer loop and fuse inner bodies" fx_uaj;
    mk "-fbuiltin" "expand builtin string/memory functions" fx_builtin;
    mk "-finstrument-functions" "insert entry/exit instrumentation" fx_instrument;
    mk "-fvectorize" "vectorize counted loops" fx_vectorize;
    mk "-fslp-vectorize" "vectorize straight-line stores" fx_slp;
    mk "-ftree-vectorize" "enable both vectorizers" fx_vec_both;
    mk "-fsimplifycfg-sink" "merge pure conditional operands bitwise" fx_merge_cond;
    mk "-fgvn" "extra value-numbering round" fx_extra_lvn;
    mk "-flate-cse" "cleanup after the loop passes" fx_late_cleanup;
    mk "-fstrength-reduce" "strength-reduce mul/div/mod by constants" fx_slsr;
    mk "-fif-convert" "convert branches to conditional moves" fx_ifcvt;
    mk "-fif-convert-aggressive" "second if-conversion after layout" fx_ifcvt2;
    mk "-flicm" "loop-invariant code motion" fx_licm;
    mk "-foptimize-sibling-calls" "tail-call optimization" fx_tail;
    mk "-fcount-reg" "decrement-and-branch loop instruction" fx_bcr;
    mk "-fjump-tables" "lower dense switches through a jump table" fx_jump_tables;
    mk "-fpeephole" "window peephole (gate)" (fx_peephole "llvm");
    mk "-fpeephole2" "peephole after register allocation" fx_peephole2;
    mk "-falign-functions" "pad function entries to 16 bytes" fx_align_funcs;
    mk "-falign-loops" "pad loop headers to 16 bytes" fx_align_loops;
    mk "-fomit-frame-pointer" "free the frame-pointer register" fx_omit_fp;
    mk "-mstackrealign" "realign the stack in prologues" fx_realign;
    mk "-mlong-call" "call through a register" fx_long_call;
    mk "-fpcc-struct-return" "return values in the alternate ABI register" fx_pcc_ret;
    mk "-freg-struct-return" "return values in the default register" fx_reg_ret;
    mk "-freorder-blocks" "lay blocks out in reverse postorder" fx_reorder_blocks;
    mk "-fhot-cold-split" "move cold blocks behind hot ones" fx_partition;
    mk "-freorder-functions" "emit functions by call frequency" fx_reorder_funcs;
    mk "-fpeel-loops" "peel the first iteration" fx_peel;
    mk "-fcall-used-r8" "treat r8 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r9" "treat r9 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r10" "treat r10 as clobbered by calls" fx_call_used;
    mk "-fcall-used-r11" "treat r11 as clobbered by calls" fx_call_used;
    mk "-fsccp" "sparse conditional constant propagation" fx_sccp;
    mk "-fnewgvn" "global value numbering / redundancy elimination" fx_gvn;
    mk "-flicm-aggressive" "aggressive loop-invariant chain hoisting" fx_aggressive_licm;
  ]

let llvm_constraints =
  [
    Requires ("-finline-aggressive", "-finline-functions");
    Requires ("-funroll-count-8", "-funroll-loops");
    Requires ("-funroll-full", "-funroll-loops");
    Requires ("-fif-convert-aggressive", "-fif-convert");
    Requires ("-fhot-cold-split", "-freorder-blocks");
    Requires ("-fpeephole2", "-fpeephole");
    Conflicts ("-mstackrealign", "-fomit-frame-pointer");
    Conflicts ("-fpcc-struct-return", "-freg-struct-return");
    Conflicts ("-floop-unroll-and-jam", "-floop-distribute");
    (* as in the gcc profile: new GVN needs the late CSE cleanup, and the
       aggressive LICM builds on the baseline one *)
    Requires ("-fnewgvn", "-flate-cse");
    Requires ("-flicm-aggressive", "-flicm");
    Conflicts ("-fsccp", "-finstrument-functions");
  ]

let llvm_o1 =
  [
    "-fjump-tables";
    "-fstrength-reduce";
    "-fif-convert";
    "-flicm";
    "-fbuiltin";
    "-fomit-frame-pointer";
    "-finline-hint-functions";
    "-fpeephole";
  ]

let llvm_o2 =
  llvm_o1
  @ [
      "-fgvn";
      "-flate-cse";
      "-foptimize-sibling-calls";
      "-freorder-blocks";
      "-freorder-functions";
      "-fpeephole2";
      "-falign-functions";
      "-fvectorize";
      "-fslp-vectorize";
      "-fsimplifycfg-sink";
    ]

(* clang's -O3 mostly raises inlining aggressiveness; it does NOT turn on
   aggressive loop unrolling — the paper's Figure 7 shows BinTuner
   *discovering* -funroll-loops beyond -O3 as its most potent LLVM flag *)
let llvm_o3 =
  llvm_o2
  @ [
      "-finline-functions";
      "-floop-unswitch";
      "-falign-loops";
      "-fif-convert-aggressive";
    ]

let llvm_os =
  List.filter
    (fun f -> not (List.mem f [ "-falign-functions"; "-fvectorize"; "-fslp-vectorize" ]))
    llvm_o2

(* ------------------------------------------------------------------ *)
(* Profile assembly                                                    *)
(* ------------------------------------------------------------------ *)

let vector_of_names flags names =
  Array.map (fun f -> List.mem f.name names) flags

let build name flag_list constraints o1 o2 o3 os =
  let flags = Array.of_list flag_list in
  {
    profile_name = name;
    flags;
    constraints;
    preset_o1 = vector_of_names flags o1;
    preset_o2 = vector_of_names flags o2;
    preset_o3 = vector_of_names flags o3;
    preset_os = vector_of_names flags os;
  }

let gcc = build "gcc-10.2" gcc_flag_list gcc_constraints gcc_o1 gcc_o2 gcc_o3 gcc_os

let llvm =
  build "llvm-11.0" llvm_flag_list llvm_constraints llvm_o1 llvm_o2 llvm_o3
    llvm_os

let profiles = [ gcc; llvm ]

let find = function
  | "gcc" -> gcc
  | "llvm" -> llvm
  | name -> List.find (fun p -> p.profile_name = name) profiles

let flag_index p name =
  let found = ref (-1) in
  Array.iteri (fun i f -> if f.name = name then found := i) p.flags;
  if !found < 0 then raise Not_found else !found

let resolve p vector =
  if Array.length vector <> Array.length p.flags then
    invalid_arg "Flags.resolve: vector length mismatch";
  (* any explicit flag vector compiles with the -O1 core on: register
     promotion cannot be disabled in a real compiler either *)
  let base =
    {
      Config.o0 with
      baseline = true;
      codegen = { Config.o0.codegen with switch_strategy = Binary_search };
    }
  in
  let cfg = ref base in
  Array.iteri (fun i on -> if on then cfg := p.flags.(i).apply !cfg) vector;
  !cfg

let preset p = function
  | "O1" -> Some p.preset_o1
  | "O2" -> Some p.preset_o2
  | "O3" -> Some p.preset_o3
  | "Os" -> Some p.preset_os
  | _ -> None

let preset_names = [ "O0"; "O1"; "O2"; "O3"; "Os" ]
