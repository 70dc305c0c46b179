(* Static feature extraction over a recovered binary.

   Three families:
   - call-graph reachability from the entry function → dead functions
     and dead-function bytes (a size fitness primitive: code the linker
     kept but nothing can reach);
   - per-function static stack-depth bounds: an interval analysis of the
     stack-pointer displacement over the recursive-descent CFG, run
     through the generic {!Analysis.Dataflow.Make_graph} worklist engine
     (the same solver the IR passes use, instantiated for binary code);
   - opcode-class histograms plus the BinPro-style provenance vector —
     [provenance_vector] is the feature extractor [Provenance.Classify]
     trains on, moved here so classifiers consume binsight features. *)

open Isa.Insn
module Itv = Analysis.Dataflow.Interval

type stack_bound = Finite of int | Unbounded

type func_features = {
  ff_name : string;
  ff_addr : int;
  ff_len : int;
  ff_reachable : bool;
  ff_stack : stack_bound;  (** peak words pushed beyond function entry *)
  ff_insns : int;
  ff_blocks : int;
}

type t = {
  histogram : int array;  (** opcode-class counts over the whole text *)
  insn_count : int;
  dead_functions : string list;
  dead_bytes : int;
  per_function : func_features list;
  provenance : float array;
}

(* ------------------------------------------------------------------ *)
(* Provenance vector                                                  *)
(* ------------------------------------------------------------------ *)

let n_provenance = Diffing.Bcode.n_opcode_classes + 8

(* One sweep of the whole text: the count behind each slot of the
   provenance vector (the opcode classes, then the witnesses), and the
   instruction count. *)
let provenance_counts (bin : Isa.Binary.t) =
  let v = Array.make n_provenance 0 in
  let n = ref 0 in
  let bump k = v.(k) <- v.(k) + 1 in
  let extra = Diffing.Bcode.n_opcode_classes in
  Isa.Codec.sweep bin.arch bin.text ~pos:0 ~stop:(String.length bin.text)
    (fun _ i _ ->
      incr n;
      bump (Diffing.Bcode.opcode_class i);
      match i with
      | Inop -> bump extra (* alignment pads *)
      | Ijtab _ -> bump (extra + 1)
      | Iloop _ -> bump (extra + 2)
      | Icmov _ | Isetcc _ -> bump (extra + 3)
      | Ivalu _ | Ivld _ | Ivst _ -> bump (extra + 4)
      | Ipush (Oreg r) when r = fp ->
        bump (extra + 5) (* frame-pointer prologues *)
      | Icallr _ -> bump (extra + 6)
      | Iinc _ | Idec _ | Ixorz _ -> bump (extra + 7) (* peephole idioms *)
      | _ -> ());
  (v, !n)

(* normalized by instruction count *)
let provenance_of (v, n) =
  let n = float_of_int (max 1 n) in
  Array.map (fun x -> float_of_int x /. n) v

let provenance_vector bin = provenance_of (provenance_counts bin)

(* ------------------------------------------------------------------ *)
(* Static stack-depth bounds                                           *)
(* ------------------------------------------------------------------ *)

(* Whether [i] writes scalar register [r] through its ordinary
   destination operand (push/pop displacement is modelled separately). *)
let writes i r =
  match i with
  | Imov (d, _)
  | Ialu (_, d, _, _)
  | Ineg (d, _)
  | Inot (d, _)
  | Isetcc (_, d)
  | Icmov (_, d, _)
  | Ild (d, _, _)
  | Ildf (d, _, _, _)
  | Ipop d
  | Ila (d, _)
  | Ivred (_, d, _)
  | Iread (d, _)
  | Ilen d
  | Iinc d
  | Idec d
  | Ixorz d ->
    d = r
  | _ -> false

(* Abstract machine state: [dep] is the interval of words pushed since
   function entry, [fp_dep] the depth captured by the last
   [mov fp, sp] (so the epilogue's [mov sp, fp] restores it exactly). *)
type state = { dep : Itv.itv; fp_dep : Itv.itv }

type fact = Unreached | S of state

let step (s : state) i =
  match i with
  | Ipush _ -> { s with dep = Itv.add s.dep (Itv.const 1) }
  | Ipop d ->
    let s = { s with dep = Itv.add s.dep (Itv.const (-1)) } in
    if d = sp then { s with dep = Itv.top }
    else if d = fp then { s with fp_dep = Itv.top }
    else s
  | Idec r when r = sp ->
    (* sp grows downward: dec allocates one word *)
    { s with dep = Itv.add s.dep (Itv.const 1) }
  | Iinc r when r = sp ->
    (* inc drops one word without reading it (pop-no-load) *)
    { s with dep = Itv.add s.dep (Itv.const (-1)) }
  | Imov (d, Oreg r) when d = fp && r = sp -> { s with fp_dep = s.dep }
  | Imov (d, Oreg r) when d = sp && r = fp -> { s with dep = s.fp_dep }
  | Ialu (Asub, d, a, Oimm m) when d = sp && a = sp ->
    { s with dep = Itv.add s.dep (Itv.const m) }
  | Ialu (Aadd, d, a, Oimm m) when d = sp && a = sp ->
    { s with dep = Itv.add s.dep (Itv.const (-m)) }
  | Ialu (Aand, d, a, _) when d = sp && a = sp ->
    (* stack realign rounds down to an even word boundary: grows ≤ 1 *)
    { s with dep = Itv.hull s.dep (Itv.add s.dep (Itv.const 1)) }
  | _ ->
    let s = if writes i sp then { s with dep = Itv.top } else s in
    if writes i fp then { s with fp_dep = Itv.top } else s

(* Peak stack use while executing the block from state [s]: the call
   return address counts as one transient word. *)
let block_peak s insns =
  let peak = ref s.dep.Itv.hi in
  let s = ref s in
  List.iter
    (fun (ia : Disasm.insn_at) ->
      (match ia.i_insn with
      | Icall _ | Icallr _ ->
        peak := max !peak (Itv.add !s.dep (Itv.const 1)).Itv.hi
      | _ -> ());
      s := step !s ia.i_insn;
      peak := max !peak !s.dep.Itv.hi)
    insns;
  !peak

module G = struct
  type graph = {
    by_addr : (int, Disasm.bblock) Hashtbl.t;
    order : int list;
    preds : (int, int list) Hashtbl.t;
    entry : int;
  }

  type t = graph
  type node = int

  let nodes g = g.order
  let succs g a = (Hashtbl.find g.by_addr a).Disasm.rb_succs
  let preds g a = try Hashtbl.find g.preds a with Not_found -> []
end

module D = struct
  module G = G

  type t = fact

  let direction = Analysis.Dataflow.Forward
  let boundary _ = S { dep = Itv.const 0; fp_dep = Itv.top }
  let is_boundary (g : G.t) a = a = g.G.entry
  let bottom _ = Unreached

  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | S x, S y -> x = y
    | _ -> false

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | S x, S y ->
      S { dep = Itv.hull x.dep y.dep; fp_dep = Itv.hull x.fp_dep y.fp_dep }

  let widen a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | S o, S n ->
      S { dep = Itv.widen o.dep n.dep; fp_dep = Itv.widen o.fp_dep n.fp_dep }

  let transfer (g : G.t) a fct =
    match fct with
    | Unreached -> Unreached
    | S s ->
      let b = Hashtbl.find g.G.by_addr a in
      S
        (List.fold_left
           (fun s (ia : Disasm.insn_at) -> step s ia.i_insn)
           s b.Disasm.rb_insns)
end

module Solver = Analysis.Dataflow.Make_graph (D)

let stack_bound (fd : Disasm.func_disasm) : stack_bound =
  match fd.d_blocks with
  | [] -> Finite 0
  | blocks ->
    let by_addr = Hashtbl.create 32 in
    let preds = Hashtbl.create 32 in
    List.iter
      (fun (b : Disasm.bblock) -> Hashtbl.replace by_addr b.rb_addr b)
      blocks;
    List.iter
      (fun (b : Disasm.bblock) ->
        List.iter
          (fun s ->
            let cur = try Hashtbl.find preds s with Not_found -> [] in
            Hashtbl.replace preds s (cur @ [ b.Disasm.rb_addr ]))
          b.rb_succs)
      blocks;
    let g =
      {
        G.by_addr;
        order = List.map (fun (b : Disasm.bblock) -> b.rb_addr) blocks;
        preds;
        entry = fd.d_addr;
      }
    in
    let in_facts, _ = Solver.solve g in
    let peak =
      List.fold_left
        (fun acc (b : Disasm.bblock) ->
          match Hashtbl.find_opt in_facts b.rb_addr with
          | None | Some Unreached -> acc
          | Some (S s) -> max acc (block_peak s b.rb_insns))
        0 blocks
    in
    if peak = max_int then Unbounded else Finite peak

(* ------------------------------------------------------------------ *)
(* Call-graph reachability                                             *)
(* ------------------------------------------------------------------ *)

let reachable_set (bin : Isa.Binary.t) (d : Disasm.t) =
  let calls = Array.make (Array.length bin.functions) [] in
  List.iteri
    (fun i (fd : Disasm.func_disasm) ->
      if i < Array.length calls then calls.(i) <- fd.d_calls)
    d.funcs;
  let seen = Array.make (Array.length bin.functions) false in
  let rec visit fid =
    if fid >= 0 && fid < Array.length seen && not (seen.(fid)) then begin
      seen.(fid) <- true;
      List.iter visit calls.(fid)
    end
  in
  visit bin.entry;
  seen

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let extract (bin : Isa.Binary.t) (d : Disasm.t) : t =
  Telemetry.with_span
    ~attrs:[ ("arch", arch_name bin.arch) ]
    "binsight.features"
    (fun () ->
      let counts, insn_count = provenance_counts bin in
      let reachable = reachable_set bin d in
      let dead = ref [] in
      let dead_bytes = ref 0 in
      Array.iteri
        (fun fid (name, _, len) ->
          if not reachable.(fid) then begin
            dead := name :: !dead;
            dead_bytes := !dead_bytes + len
          end)
        bin.functions;
      let per_function =
        List.mapi
          (fun fid (fd : Disasm.func_disasm) ->
            {
              ff_name = fd.d_name;
              ff_addr = fd.d_addr;
              ff_len = fd.d_len;
              ff_reachable =
                fid < Array.length reachable && reachable.(fid);
              ff_stack = stack_bound fd;
              ff_insns = List.length fd.d_insns;
              ff_blocks = List.length fd.d_blocks;
            })
          d.funcs
      in
      {
        histogram = Array.sub counts 0 Diffing.Bcode.n_opcode_classes;
        insn_count;
        dead_functions = List.rev !dead;
        dead_bytes = !dead_bytes;
        per_function;
        provenance = provenance_of (counts, insn_count);
      })
