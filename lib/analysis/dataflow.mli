(** Deterministic worklist dataflow solver.

    The engine ({!Make_graph}) is generic over a directed graph: a client
    provides node enumeration in layout order plus successor/predecessor
    edges, and a lattice ([bottom]/[join]/[equal], with [widen] for
    infinite-height domains) with a per-node [transfer] function.  The
    solver seeds a FIFO worklist in layout order (reverse layout order
    for backward problems) and iterates to a fixpoint, so two runs over
    the same graph produce identical tables — the fitness pipeline
    depends on byte-identical results at any worker count.

    {!Make} specializes the engine to [Vir.Ir] functions (nodes are block
    labels); [Binsight.Features] reuses {!Make_graph} directly over
    recovered binary CFGs (nodes are basic-block addresses).
    {!Reaching}, {!Constprop} and {!Interval} run on it; the widening
    ones need it, as the FIFO visit order decides where widening fires.

    Liveness does not: its fixpoint is unique, so it runs on a dense
    bitset kernel ({!liveness_solver}) over blocks indexed by layout
    position ({!index_blocks}), which [Passes.Cfg_utils] also builds its
    dominators and natural loops on.

    [solve] returns two tables, [(in_facts, out_facts)]: the fact at
    node entry and at node exit, regardless of direction.  For a
    backward problem the solver computes [out] by joining successor
    [in]s and obtains [in] by transfer; for a forward problem it is the
    mirror image. *)

module Iset : Set.S with type elt = int
module Imap : Map.S with type key = int

type direction = Forward | Backward

(** Lattice + transfer over [Vir.Ir] functions (the historical client
    interface, consumed by {!Make}). *)
module type DOMAIN = sig
  type t

  val direction : direction

  val boundary : Vir.Ir.func -> t
  (** Fact at the CFG boundary: function entry for a forward problem,
      every exit block (no successors) for a backward one. *)

  val bottom : Vir.Ir.func -> t
  (** Initial fact for every block; must be the identity of [join]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old_input new_input] replaces [join] once a block's input
      has been recomputed a few times; must over-approximate
      both arguments and stabilize infinite ascending chains.
      Finite-height domains simply reuse [join]. *)

  val transfer : Vir.Ir.func -> Vir.Ir.block -> t -> t
end

(** Abstract directed graph the generic engine iterates over. *)
module type GRAPH = sig
  type t

  type node
  (** Node identifiers are used as hash-table keys, so they should be
      small immutable values (labels, addresses) with structural
      equality. *)

  val nodes : t -> node list
  (** All nodes in layout order.  Forward problems seed the worklist in
      this order, backward problems in reverse; facts are computed only
      for listed nodes.  Edges to nodes outside this list are ignored. *)

  val succs : t -> node -> node list
  val preds : t -> node -> node list
end

(** Lattice + transfer over an abstract {!GRAPH}. *)
module type GRAPH_DOMAIN = sig
  module G : GRAPH

  type t

  val direction : direction

  val boundary : G.t -> t
  (** Fact seeded at boundary nodes (see {!is_boundary}). *)

  val is_boundary : G.t -> G.node -> bool
  (** Whether the node receives the {!boundary} seed in addition to its
      neighbours' facts — entry node(s) for a forward problem, exit
      nodes for a backward one. *)

  val bottom : G.t -> t
  (** Initial fact for every node; must be the identity of [join]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val transfer : G.t -> G.node -> t -> t
end

(** Generic fixpoint engine over any {!GRAPH_DOMAIN}.  Each [solve]
    adds its node visits to the [dataflow.engine.visits] counter. *)
module Make_graph (D : GRAPH_DOMAIN) : sig
  type fact = D.t

  val solve :
    D.G.t -> (D.G.node, fact) Hashtbl.t * (D.G.node, fact) Hashtbl.t
end

(** [Vir.Ir] instantiation: facts are indexed by block label. *)
module Make (D : DOMAIN) : sig
  type fact = D.t

  val solve : Vir.Ir.func -> (int, fact) Hashtbl.t * (int, fact) Hashtbl.t
end

(** Dense bitsets over small non-negative ints (registers, slots):
    [int array] words of [Sys.int_size] bits, mutated in place. *)
module Bits : sig
  type t = int array

  val mem : t -> int -> bool
  (** [false] past the set's width. *)

  val add : t -> int -> unit
  (** Raises [Invalid_argument] past the set's width. *)

  val remove : t -> int -> unit

  val iter : (int -> unit) -> t -> unit
  (** Members in increasing order, as [Iset.iter] visits them. *)
end

(** A function's blocks indexed by layout position. *)
type blocks = {
  block : Vir.Ir.block array;  (** layout order; position 0 is the entry *)
  pos : int -> int;  (** label → position, [-1] when no block has it *)
  succs : int array array;
      (** per position, successor positions in terminator order
          (duplicates kept); labels that name no block are dropped *)
}

val index_blocks : Vir.Ir.func -> blocks

(** Liveness facts per block, indexed by layout position. *)
type liveness = {
  live_pos : int -> int;  (** label → position, [-1] when no block has it *)
  live_in : Bits.t array;
  live_out : Bits.t array;
}

val liveness_solver :
  uses:(Vir.Ir.instr -> int list) ->
  def:(Vir.Ir.instr -> int option) ->
  term_uses:(Vir.Ir.terminator -> int list) ->
  Vir.Ir.func ->
  liveness
(** Backward liveness parameterized over use/def extraction (scalar and
    vector registers live in separate namespaces; lint reuses it for
    frame slots).  A dense kernel, not an instance of {!Make}: one scan
    gives each block's use/def bitsets, which are swept in reverse
    layout order to the least (and unique) fixpoint.  Every set is wide
    enough for each register the function mentions.  Counts
    [dataflow.liveness.solves] and [dataflow.liveness.block_visits]
    through telemetry. *)

(** Scalar-register liveness; [Loop_branch] counters count as uses. *)
module Liveness : sig
  val solve : Vir.Ir.func -> liveness
end

(** Vector-register liveness. *)
module Vliveness : sig
  val solve : Vir.Ir.func -> liveness
end

(** Reaching definitions.  A definition site is
    [(block label, instruction index, register)]; parameters enter as
    sites [(-1, param index, register)].  A register with no reaching
    definition reads as 0. *)
module Reaching : sig
  module Site : sig
    type t = int * int * int

    val compare : t -> t -> int
  end

  module Sset : Set.S with type elt = Site.t

  val solve :
    Vir.Ir.func -> (int, Sset.t) Hashtbl.t * (int, Sset.t) Hashtbl.t
end

(** A forward value analysis: one abstract value per register, solved
    on {!Make}.  {!Constprop} and {!Interval} are the two instances of
    one skeleton, which differ only in their value domain. *)
module type VALUE_ANALYSIS = sig
  type v

  type t = Unreached | Env of v Imap.t
  (** Inside [Env], an absent register means "still holds its initial
      0"; the canonical form never stores a value known to be 0. *)

  val lookup : v Imap.t -> int -> v
  val operand : v Imap.t -> Vir.Ir.operand -> v
  val eval_instr : v Imap.t -> Vir.Ir.instr -> v Imap.t

  val solve : Vir.Ir.func -> (int, t) Hashtbl.t * (int, t) Hashtbl.t
  (** [Unreached] facts mark blocks no path reaches.  A [Loop_branch]
      counter is [top] in its block's out-fact, as the terminator
      changes it. *)
end

(** Conditional constant propagation facts (flat lattice per register;
    the solver's reachability component makes it SCCP-grade: facts from
    unreached blocks stay [Unreached]). *)
module Constprop : sig
  type cval = Const of int | Top

  include VALUE_ANALYSIS with type v := cval
end

(** Integer interval analysis (forward, widened after a few visits
    of a block).  [min_int]/[max_int] double as -∞/+∞; an operation
    whose finite bound would overflow, or land on one of them, gives
    [top]. *)
module Interval : sig
  type itv = { lo : int; hi : int }

  val top : itv
  val const : int -> itv
  val add : itv -> itv -> itv
  val hull : itv -> itv -> itv

  val widen : itv -> itv -> itv
  (** [widen old_value new_value]: each bound that moved goes to ∞. *)

  val truth : itv -> bool option
  (** As a condition: [Some true] when the interval excludes 0,
      [Some false] when it is exactly 0, [None] otherwise. *)

  include VALUE_ANALYSIS with type v := itv
end
