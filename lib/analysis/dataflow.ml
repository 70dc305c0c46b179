(* Generic worklist dataflow solver over [Vir.Ir] control-flow graphs.

   A client provides a lattice ([bottom]/[join]/[equal], with [widen] for
   infinite-height domains) and a per-block [transfer] function; [Make]
   returns a fixpoint solver usable in either direction.  The solver is
   deterministic: blocks are seeded in layout order (reverse layout order
   for backward problems) into a FIFO worklist, so two runs over the same
   function produce the same tables — the fitness pipeline depends on
   byte-identical binaries at any worker count.

   Facts are indexed by block label.  [solve] returns two tables,
   ([in_facts], [out_facts]): the fact at block entry and at block exit,
   regardless of direction.  For a backward problem the solver computes
   [out] by joining successor [in]s and obtains [in] by transfer; for a
   forward problem it is the mirror image. *)

open Vir.Ir
module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

type direction = Forward | Backward

module type DOMAIN = sig
  type t

  val direction : direction

  val boundary : func -> t
  (** Fact at the CFG boundary: function entry for a forward problem,
      every exit block (no successors) for a backward one. *)

  val bottom : func -> t
  (** Initial fact for every block; must be the identity of [join]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old_input new_input] replaces [join] once a block's input has
      been recomputed [widen_delay] times; must over-approximate both
      arguments and stabilize infinite ascending chains.  Finite-height
      domains simply reuse [join]. *)

  val transfer : func -> block -> t -> t
end

(* Visits of one block before [widen] replaces plain joining.  Small
   enough to bound interval iteration on deep loop nests, large enough to
   keep short chains exact. *)
let widen_delay = 4

(* The worklist engine itself is graph-agnostic: it only needs to
   enumerate nodes in a deterministic seeding order and follow edges in
   both directions.  [Make] below instantiates it for [Vir.Ir] functions;
   [Binsight] instantiates it for recovered binary CFGs. *)
module type GRAPH = sig
  type t

  type node
  (** Node identifiers are used as hash-table keys, so they should be
      small immutable values (labels, addresses) with structural
      equality. *)

  val nodes : t -> node list
  (** All nodes in layout order.  Forward problems seed the worklist in
      this order, backward problems in reverse; facts are computed only
      for listed nodes. *)

  val succs : t -> node -> node list
  val preds : t -> node -> node list
end

module type GRAPH_DOMAIN = sig
  module G : GRAPH

  type t

  val direction : direction

  val boundary : G.t -> t
  (** Fact at the CFG boundary: entry node(s) for a forward problem,
      exit nodes for a backward one (see {!is_boundary}). *)

  val is_boundary : G.t -> G.node -> bool
  (** Whether the node receives the {!boundary} seed in addition to its
      neighbours' facts. *)

  val bottom : G.t -> t
  (** Initial fact for every node; must be the identity of [join]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val transfer : G.t -> G.node -> t -> t
end

module Make_graph (D : GRAPH_DOMAIN) = struct
  type fact = D.t

  let solve (g : D.G.t) :
      (D.G.node, fact) Hashtbl.t * (D.G.node, fact) Hashtbl.t =
    let ns = D.G.nodes g in
    let n = List.length ns in
    let in_facts = Hashtbl.create (2 * n) in
    let out_facts = Hashtbl.create (2 * n) in
    let known = Hashtbl.create (2 * n) in
    List.iter
      (fun nd ->
        Hashtbl.replace known nd ();
        Hashtbl.replace in_facts nd (D.bottom g);
        Hashtbl.replace out_facts nd (D.bottom g))
      ns;
    let queue = Queue.create () in
    let queued = Hashtbl.create (2 * n) in
    let push nd =
      if Hashtbl.mem known nd && not (Hashtbl.mem queued nd) then begin
        Hashtbl.replace queued nd ();
        Queue.add nd queue
      end
    in
    (match D.direction with
    | Forward -> List.iter push ns
    | Backward -> List.iter push (List.rev ns));
    let visits = Hashtbl.create (2 * n) in
    let total = ref 0 in
    while not (Queue.is_empty queue) do
      let nd = Queue.take queue in
      Hashtbl.remove queued nd;
      incr total;
      (* the side fed to [transfer]: in for forward, out for backward *)
      let neighbour_facts =
        match D.direction with
        | Forward ->
          D.G.preds g nd
          |> List.filter_map (fun p -> Hashtbl.find_opt out_facts p)
        | Backward ->
          D.G.succs g nd
          |> List.filter_map (fun s -> Hashtbl.find_opt in_facts s)
      in
      let seed = if D.is_boundary g nd then D.boundary g else D.bottom g in
      let joined = List.fold_left D.join seed neighbour_facts in
      let stored_input, stored_output =
        match D.direction with
        | Forward -> (Hashtbl.find in_facts nd, Hashtbl.find out_facts nd)
        | Backward -> (Hashtbl.find out_facts nd, Hashtbl.find in_facts nd)
      in
      let v = try Hashtbl.find visits nd with Not_found -> 0 in
      Hashtbl.replace visits nd (v + 1);
      let input =
        if v >= widen_delay then D.widen stored_input joined else joined
      in
      let output = D.transfer g nd input in
      (match D.direction with
      | Forward -> Hashtbl.replace in_facts nd input
      | Backward -> Hashtbl.replace out_facts nd input);
      if not (D.equal output stored_output) then begin
        (match D.direction with
        | Forward -> Hashtbl.replace out_facts nd output
        | Backward -> Hashtbl.replace in_facts nd output);
        let dependents =
          match D.direction with
          | Forward -> D.G.succs g nd
          | Backward -> D.G.preds g nd
        in
        List.iter push dependents
      end
    done;
    Telemetry.add_count ~by:!total "dataflow.engine.visits";
    (in_facts, out_facts)
end

module Make (D : DOMAIN) = struct
  type fact = D.t

  (* [Vir.Ir] functions viewed as a graph of block labels.  Successor
     lists come straight from the terminators — including labels that do
     not name a block, which the engine's membership check then ignores,
     exactly as the pre-generic solver did. *)
  type graph = {
    f : func;
    by_label : (int, block) Hashtbl.t;
    preds : (int, int list) Hashtbl.t;
    entry : int;
  }

  module G = struct
    type t = graph
    type node = int

    let nodes g = List.map (fun b -> b.label) g.f.blocks
    let succs g l = successors (Hashtbl.find g.by_label l).term
    let preds g l = try Hashtbl.find g.preds l with Not_found -> []
  end

  module GD = struct
    module G = G

    type t = D.t

    let direction = D.direction
    let boundary (g : graph) = D.boundary g.f

    let is_boundary (g : graph) l =
      match D.direction with
      | Forward -> l = g.entry
      | Backward -> G.succs g l = []

    let bottom (g : graph) = D.bottom g.f
    let equal = D.equal
    let join = D.join
    let widen = D.widen

    let transfer (g : graph) l input =
      D.transfer g.f (Hashtbl.find g.by_label l) input
  end

  module S = Make_graph (GD)

  let solve (f : func) : (int, fact) Hashtbl.t * (int, fact) Hashtbl.t =
    let by_label = Hashtbl.create (2 * List.length f.blocks) in
    List.iter (fun b -> Hashtbl.replace by_label b.label b) f.blocks;
    let entry = match f.blocks with b :: _ -> b.label | [] -> -1 in
    S.solve { f; by_label; preds = predecessors f; entry }
end

(* ------------------------------------------------------------------ *)
(* Dense bitsets and block indexing                                    *)
(* ------------------------------------------------------------------ *)

module Bits = struct
  type t = int array

  (* a literal, so word arithmetic compiles to multiplies and shifts *)
  let word = 63
  let () = assert (Sys.int_size = word)

  (* the empty set [k] words wide; literal arrays for the one- and
     two-word sets nearly every function needs, as [Array.make] is a C
     call *)
  let zero = function
    | 0 -> [||]
    | 1 -> [| 0 |]
    | 2 -> [| 0; 0 |]
    | k -> Array.make k 0

  let mem s i =
    let w = i / word in
    w < Array.length s && s.(w) land (1 lsl (i mod word)) <> 0

  let add s i =
    let w = i / word in
    s.(w) <- s.(w) lor (1 lsl (i mod word))

  let remove s i =
    let w = i / word in
    if w < Array.length s then s.(w) <- s.(w) land lnot (1 lsl (i mod word))

  (* members in increasing order, as [Iset.iter] visits them *)
  let iter f s =
    for w = 0 to Array.length s - 1 do
      let x = ref s.(w) and i = ref (w * word) in
      while !x <> 0 do
        if !x land 1 <> 0 then f !i;
        x := !x lsr 1;
        incr i
      done
    done
end

type blocks = {
  block : block array;
  pos : int -> int;
  succs : int array array;
}

let index_blocks (f : func) =
  let block = Array.of_list f.blocks in
  let n = Array.length block in
  let lo = Array.fold_left (fun m b -> min m b.label) max_int block in
  let hi = Array.fold_left (fun m b -> max m b.label) min_int block in
  let span = hi - lo in
  let pos =
    if n > 0 && span >= 0 && span < (4 * n) + 64 then begin
      (* the usual case: labels come from [next_label], so a direct
         table over their range is small *)
      let a = Array.make (span + 1) (-1) in
      Array.iteri (fun i b -> a.(b.label - lo) <- i) block;
      fun l -> if l < lo || l > hi then -1 else a.(l - lo)
    end
    else begin
      let h = Hashtbl.create (2 * n) in
      Array.iteri (fun i b -> Hashtbl.replace h b.label i) block;
      fun l -> match Hashtbl.find_opt h l with Some i -> i | None -> -1
    end
  in
  let succs =
    Array.map
      (fun b ->
        match
          List.filter_map
            (fun l ->
              let p = pos l in
              if p < 0 then None else Some p)
            (successors b.term)
        with
        | [] -> [||]
        | [ s ] -> [| s |]
        | [ s; t ] -> [| s; t |]
        | ss -> Array.of_list ss)
      block
  in
  { block; pos; succs }

(* ------------------------------------------------------------------ *)
(* Liveness: one dense backward kernel                                 *)
(* ------------------------------------------------------------------ *)

type liveness = {
  live_pos : int -> int;
  live_in : Bits.t array;
  live_out : Bits.t array;
}

(* Scalar and vector registers live in separate namespaces with separate
   use/def accessors, and lint asks the same question of frame slots, so
   the kernel is parameterized over the extraction functions.  One scan
   collects each block's upward-exposed uses and its definitions; the
   fixpoint is then swept over [int array] bitsets in reverse layout
   order until nothing changes.  Iteration starts from empty sets, so it
   stops at the least fixpoint of the liveness equations, which is
   unique: any visit order gives the same sets. *)
let liveness_solver ~uses ~def ~term_uses (f : func) =
  Telemetry.add_count "dataflow.liveness.solves";
  let bl = index_blocks f in
  let n = Array.length bl.block in
  let nwords = ref 0 in
  let use = Array.make n [||] and defs = Array.make n [||] in
  (* widen every block's sets (rarely: the width doubles) when a
     register past their width turns up *)
  let fit r =
    let k = (r / Bits.word) + 1 in
    if k > !nwords then begin
      let k = max k (2 * !nwords) in
      let widen s =
        let s' = Bits.zero k in
        Array.blit s 0 s' 0 (Array.length s);
        s'
      in
      for q = 0 to n - 1 do
        use.(q) <- widen use.(q);
        defs.(q) <- widen defs.(q)
      done;
      nwords := k
    end
  in
  Array.iteri
    (fun p b ->
      let exposed r =
        fit r;
        if not (Bits.mem defs.(p) r) then Bits.add use.(p) r
      in
      List.iter
        (fun i ->
          List.iter exposed (uses i);
          match def i with
          | Some d ->
            fit d;
            Bits.add defs.(p) d
          | None -> ())
        b.instrs;
      List.iter exposed (term_uses b.term))
    bl.block;
  let nwords = !nwords in
  let live_in = Array.init n (fun _ -> Bits.zero nwords) in
  let live_out = Array.init n (fun _ -> Bits.zero nwords) in
  let visits = ref 0 in
  let changed = ref (nwords > 0) in
  while !changed do
    changed := false;
    for p = n - 1 downto 0 do
      incr visits;
      let out = live_out.(p) and inn = live_in.(p) in
      let u = use.(p) and d = defs.(p) and ss = bl.succs.(p) in
      for w = 0 to nwords - 1 do
        let o = ref 0 in
        for k = 0 to Array.length ss - 1 do
          o := !o lor live_in.(ss.(k)).(w)
        done;
        out.(w) <- !o;
        let v = u.(w) lor (!o land lnot d.(w)) in
        if v <> inn.(w) then begin
          inn.(w) <- v;
          changed := true
        end
      done
    done
  done;
  Telemetry.add_count ~by:!visits "dataflow.liveness.block_visits";
  { live_pos = bl.pos; live_in; live_out }

module Liveness = struct
  (* scalar-register liveness; [Loop_branch] counters are uses via
     [term_uses] *)
  let solve f =
    liveness_solver ~uses:instr_uses ~def:instr_def ~term_uses f
end

module Vliveness = struct
  (* vector-register liveness: a reduction accumulator lives from its
     splat in the preheader, through the loop body, to the reduce after
     the loop *)
  let solve f =
    liveness_solver ~uses:instr_vuses ~def:instr_vdef
      ~term_uses:(fun _ -> [])
      f
end

(* ------------------------------------------------------------------ *)
(* Instance: reaching definitions (forward, set-of-sites lattice)      *)
(* ------------------------------------------------------------------ *)

module Reaching = struct
  (* A definition site is (block label, instruction index, register);
     parameters are sites (-1, i, r).  A register with no reaching
     definition reads as 0 (interpreter and codegen agree on that for
     never-defined registers), so the empty set is meaningful. *)
  module Site = struct
    type t = int * int * int

    let compare = compare
  end

  module Sset = Set.Make (Site)

  let kill_reg r s = Sset.filter (fun (_, _, r') -> r' <> r) s

  let block_transfer b s =
    let s = ref s in
    List.iteri
      (fun idx i ->
        match instr_def i with
        | Some d -> s := Sset.add (b.label, idx, d) (kill_reg d !s)
        | None -> ())
      b.instrs;
    !s

  let solve (f : func) =
    let module D = struct
      type t = Sset.t

      let direction = Forward

      let boundary f =
        List.fold_left
          (fun acc (i, p) -> Sset.add (-1, i, p) acc)
          Sset.empty
          (List.mapi (fun i p -> (i, p)) f.params)

      let bottom _ = Sset.empty
      let equal = Sset.equal
      let join = Sset.union
      let widen = Sset.union
      let transfer _ = block_transfer
    end in
    let module S = Make (D) in
    S.solve f
end

(* ------------------------------------------------------------------ *)
(* Forward value analyses: one register-environment skeleton            *)
(* ------------------------------------------------------------------ *)

(* A value domain for one register.  [truth] reads a value as a branch
   or [Select] condition: [Some true] when it is surely nonzero,
   [Some false] when it is surely 0, [None] when it may be either. *)
module type VALUE = sig
  type v

  val const : int -> v
  val top : v
  val join : v -> v -> v
  val widen : v -> v -> v
  val bin : binop -> v -> v -> v
  val un : unop -> v -> v
  val truth : v -> bool option
end

module type VALUE_ANALYSIS = sig
  type v
  type t = Unreached | Env of v Imap.t

  val lookup : v Imap.t -> int -> v
  val operand : v Imap.t -> operand -> v
  val eval_instr : v Imap.t -> instr -> v Imap.t
  val solve : func -> (int, t) Hashtbl.t * (int, t) Hashtbl.t
end

module Value_analysis (D : VALUE) : VALUE_ANALYSIS with type v = D.v = struct
  type v = D.v

  (* [Unreached] is the solver bottom (identity of join); inside [Env],
     an absent register means "still holds its initial 0" — the
     interpreter and the VM both zero-initialize register state, so this
     is exact, and the canonical form never stores a value known to be
     0. *)
  type t = Unreached | Env of v Imap.t

  let zero = D.const 0

  let lookup env r =
    match Imap.find_opt r env with Some v -> v | None -> zero

  (* a value whose truth is [Some false] is exactly 0 *)
  let is_zero v = match D.truth v with Some false -> true | _ -> false
  let keep v = if is_zero v then None else Some v
  let set env r v = if is_zero v then Imap.remove r env else Imap.add r v env

  let pointwise f a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Env ea, Env eb ->
      Env
        (Imap.merge
           (fun _ va vb ->
             keep
               (f (Option.value va ~default:zero) (Option.value vb ~default:zero)))
           ea eb)

  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | Env ea, Env eb -> Imap.equal ( = ) ea eb
    | _ -> false

  let operand env = function Imm n -> D.const n | Reg r -> lookup env r

  let eval_instr env i =
    match instr_def i with
    | None -> env
    | Some d -> (
      match i with
      | Mov (_, src) -> set env d (operand env src)
      | Bin (op, _, a, b) -> set env d (D.bin op (operand env a) (operand env b))
      | Un (op, _, a) -> set env d (D.un op (operand env a))
      | Select (_, c, x, y) -> (
        match D.truth (operand env c) with
        | Some true -> set env d (operand env x)
        | Some false -> set env d (operand env y)
        | None -> set env d (D.join (operand env x) (operand env y)))
      | Load _ | Slot_load _ | Call _ | Vreduce _ | Read_input _
      | Input_len _ ->
        set env d D.top
      | Store _ | Slot_store _ | Vload _ | Vstore _ | Vbin _ | Vsplat _
      | Vpack _ | Print_int _ | Print_char _ ->
        env)

  (* [Loop_branch] decrements its counter register as part of the
     terminator, so the value any successor sees is not the value the
     block's instructions left behind.  Clearing the counter to [top] at
     block exit keeps the out-facts sound — without it, a constant seeded
     before the loop would wrongly survive every iteration. *)
  let kill_loop_counter b env =
    match b.term with Loop_branch (r, _, _) -> Imap.add r D.top env | _ -> env

  let solve (f : func) =
    let module S = Make (struct
      type nonrec t = t

      let direction = Forward

      let boundary f =
        Env
          (List.fold_left (fun env p -> Imap.add p D.top env) Imap.empty f.params)

      let bottom _ = Unreached
      let equal = equal
      let join = pointwise D.join
      let widen = pointwise D.widen

      let transfer _ b = function
        | Unreached -> Unreached
        | Env env ->
          Env (kill_loop_counter b (List.fold_left eval_instr env b.instrs))
    end) in
    S.solve f
end

(* Constant propagation: a flat lattice per register. *)
module Constprop = struct
  type cval = Const of int | Top

  include Value_analysis (struct
    type v = cval

    let const n = Const n
    let top = Top

    let join a b =
      match (a, b) with Const x, Const y when x = y -> a | _ -> Top

    (* the lattice has finite height *)
    let widen = join

    let bin op a b =
      match (a, b) with
      | Const x, Const y -> Const (eval_binop op x y)
      | _ -> Top

    let un op = function Const x -> Const (eval_unop op x) | Top -> Top

    let truth = function
      | Const 0 -> Some false
      | Const _ -> Some true
      | Top -> None
  end)
end

(* Integer intervals, widened after [widen_delay] visits of a block. *)
module Interval = struct
  (* [min_int]/[max_int] double as -∞/+∞, and an infinite bound stays
     infinite.  Concrete arithmetic wraps, so a finite bound that would
     overflow bounds nothing: the whole operation's result is [top].  A
     finite value equal to [min_int] or [max_int] would read as infinite,
     so it counts as an overflow too. *)
  type itv = { lo : int; hi : int }

  let top = { lo = min_int; hi = max_int }
  let is_top v = v.lo = min_int && v.hi = max_int
  let is_inf a = a = min_int || a = max_int
  let const n = if is_inf n then top else { lo = n; hi = n }

  exception Overflow

  let sat_add a b =
    if a = min_int || b = min_int then min_int
    else if a = max_int || b = max_int then max_int
    else
      let s = a + b in
      if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) || is_inf s
      then raise_notrace Overflow
      else s

  let sat_neg a =
    if a = min_int then max_int
    else if a = max_int then min_int
    else if a = min_int + 1 then raise_notrace Overflow
    else -a

  (* products only on small finite bounds.  A zero factor gives 0, even
     against an infinite bound; an infinite bound times a nonzero factor
     gives ∞ by sign. *)
  let sat_mul a b =
    let big = 1 lsl 30 in
    if a = 0 || b = 0 then 0
    else if is_inf a || is_inf b then
      if (a > 0 && b > 0) || (a < 0 && b < 0) then max_int else min_int
    else if abs a >= big || abs b >= big then raise_notrace Overflow
    else a * b

  let add x y =
    try { lo = sat_add x.lo y.lo; hi = sat_add x.hi y.hi }
    with Overflow -> top

  let neg x =
    try { lo = sat_neg x.hi; hi = sat_neg x.lo } with Overflow -> top
  let sub x y = add x (neg y)

  let mul x y =
    if is_top x || is_top y then top
    else
      match
        [ sat_mul x.lo y.lo; sat_mul x.lo y.hi; sat_mul x.hi y.lo;
          sat_mul x.hi y.hi ]
      with
      | cands ->
        {
          lo = List.fold_left min max_int cands;
          hi = List.fold_left max min_int cands;
        }
      | exception Overflow -> top

  let hull x y = { lo = min x.lo y.lo; hi = max x.hi y.hi }

  (* a bound that moved since the last visit jumps to infinity *)
  let widen o n =
    {
      lo = (if n.lo < o.lo then min_int else o.lo);
      hi = (if n.hi > o.hi then max_int else o.hi);
    }

  let truth v =
    if v.lo > 0 || v.hi < 0 then Some true
    else if v.lo = 0 && v.hi = 0 then Some false
    else None

  let bool_itv = { lo = 0; hi = 1 }

  let bin op x y =
    match op with
    | Add -> add x y
    | Sub -> sub x y
    | Mul -> mul x y
    | Slt | Sle | Sgt | Sge | Seq | Sne -> bool_itv
    | Mod ->
      (* OCaml [mod] follows the dividend's sign; [eval_binop] maps a
         zero divisor to 0 *)
      if y.lo = y.hi && y.lo > 0 && y.lo < max_int then
        if x.lo >= 0 then { lo = 0; hi = y.lo - 1 }
        else { lo = -(y.lo - 1); hi = y.lo - 1 }
      else top
    | And ->
      (* a land m with a constant non-negative mask is within [0, m] *)
      if y.lo = y.hi && y.lo >= 0 then { lo = 0; hi = y.lo }
      else if x.lo = x.hi && x.lo >= 0 then { lo = 0; hi = x.lo }
      else top
    | Div | Or | Xor | Shl | Shr -> top

  include Value_analysis (struct
    type v = itv

    let const = const
    let top = top
    let join = hull
    let widen = widen
    let bin = bin

    (* lnot x = -x - 1 *)
    let un op x = match op with Neg -> neg x | Not -> sub (neg x) (const 1)
    let truth = truth
  end)
end
