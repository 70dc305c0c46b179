(* The resolved compiler configuration: every optimization flag of a
   profile maps to a mutation of this record.  [Pipeline.compile] reads it
   to decide which passes run, in which shape. *)

type t = {
  (* inter-procedural / AST passes *)
  inline_small : bool;  (** inline callees below the small threshold *)
  inline_big : bool;  (** raise the threshold to the large one *)
  inline_rounds : int;
  inline_small_threshold : int;
  inline_big_threshold : int;
  unroll : bool;
  unroll_factor : int;
  full_unroll_limit : int;
  peel : bool;
  unswitch : bool;
  distribute : bool;
  unroll_and_jam : bool;
  expand_builtins : bool;
  instrument : bool;
  (* frontend lowering *)
  merge_conditionals : bool;
  vectorize : bool;
  (* IR passes *)
  baseline : bool;  (** mem2reg + LVN + DCE + simplify-cfg (the -O1 core) *)
  extra_lvn : bool;  (** re-run value numbering after the loop passes *)
  late_cleanup : bool;  (** final cleanup round after all IR passes *)
  if_convert_late : bool;  (** second if-conversion after block layout *)
  strength_reduce : bool;
  if_convert : bool;
  licm : bool;
  sccp : bool;  (** sparse conditional constprop + edge pruning *)
  gvn : bool;  (** dominator-ordered global value numbering *)
  aggressive_licm : bool;  (** chain-hoisting LICM on the dominator instance *)
  tail_call : bool;
  branch_count_reg : bool;
  slp : bool;
  reorder_blocks : bool;
  partition : bool;
  reorder_functions : bool;
  codegen : Codegen.Emit.options;
}

(* -O0: nothing at all.  Note even [baseline] is off: locals stay in
   frame slots, producing the boilerplate code shape the paper's NCD
   discussion relies on. *)
let o0 =
  {
    inline_small = false;
    inline_big = false;
    inline_rounds = 1;
    inline_small_threshold = 8;
    inline_big_threshold = 70;
    unroll = false;
    unroll_factor = 4;
    full_unroll_limit = 8;
    peel = false;
    unswitch = false;
    distribute = false;
    unroll_and_jam = false;
    expand_builtins = false;
    instrument = false;
    merge_conditionals = false;
    vectorize = false;
    baseline = false;
    extra_lvn = false;
    late_cleanup = false;
    if_convert_late = false;
    strength_reduce = false;
    if_convert = false;
    licm = false;
    sccp = false;
    gvn = false;
    aggressive_licm = false;
    tail_call = false;
    branch_count_reg = false;
    slp = false;
    reorder_blocks = false;
    partition = false;
    reorder_functions = false;
    codegen = { Codegen.Emit.default_options with switch_strategy = Linear };
  }
