open Vir.Ir
module Iset = Analysis.Dataflow.Iset

let reachable f =
  let block_table = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_table b.label b) f.blocks;
  let seen = ref Iset.empty in
  let rec go l =
    if not (Iset.mem l !seen) then begin
      seen := Iset.add l !seen;
      match Hashtbl.find_opt block_table l with
      | Some b -> List.iter go (successors b.term)
      | None -> ()
    end
  in
  (match f.blocks with b :: _ -> go b.label | [] -> ());
  !seen

(* Dominators on the dense block indexing ({!Analysis.Dataflow.index_blocks})
   by Cooper, Harvey and Kennedy's iteration over reverse postorder.
   Returns the reachable positions in reverse postorder, each position's
   rank in it (-1 when unreachable), each reachable position's immediate
   dominator (the entry is its own), and the predecessors of each
   position among reachable blocks. *)
let idoms (bl : Analysis.Dataflow.blocks) =
  let n = Array.length bl.block in
  let seen = Array.make n false in
  let post = ref [] in
  let rec go p =
    if not seen.(p) then begin
      seen.(p) <- true;
      Array.iter go bl.succs.(p);
      post := p :: !post
    end
  in
  if n > 0 then go 0;
  let order = Array.of_list !post in
  let rank = Array.make n (-1) in
  Array.iteri (fun k p -> rank.(p) <- k) order;
  let preds = Array.make n [] in
  Array.iter
    (fun p -> Array.iter (fun s -> preds.(s) <- p :: preds.(s)) bl.succs.(p))
    order;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rank.(a) > rank.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to Array.length order - 1 do
      let b = order.(k) in
      let nd =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(b)
      in
      if nd <> idom.(b) then begin
        idom.(b) <- nd;
        changed := true
      end
    done
  done;
  (order, rank, idom, preds)

(* The table has entries for reachable blocks only, inserted in layout
   order, and every set holds only reachable labels. *)
let dominators f =
  let bl = Analysis.Dataflow.index_blocks f in
  let order, rank, idom, _ = idoms bl in
  let sets = Array.make (Array.length bl.block) Iset.empty in
  Array.iteri
    (fun k p ->
      let up = if k = 0 then Iset.empty else sets.(idom.(p)) in
      sets.(p) <- Iset.add bl.block.(p).label up)
    order;
  let dom = Hashtbl.create 16 in
  Array.iteri
    (fun p b -> if rank.(p) >= 0 then Hashtbl.replace dom b.label sets.(p))
    bl.block;
  dom

let dom_children f =
  let bl = Analysis.Dataflow.index_blocks f in
  let order, _, idom, _ = idoms bl in
  let children = Hashtbl.create 16 in
  Array.iteri
    (fun k p ->
      if k > 0 then begin
        let parent = bl.block.(idom.(p)).label in
        let cur = try Hashtbl.find children parent with Not_found -> [] in
        Hashtbl.replace children parent (bl.block.(p).label :: cur)
      end)
    order;
  fun l ->
    List.sort compare (try Hashtbl.find children l with Not_found -> [])

type loop = {
  header : int;
  body : Iset.t;
  back_edges : int list;
}

let natural_loops f =
  let bl = Analysis.Dataflow.index_blocks f in
  let _, rank, idom, preds = idoms bl in
  (* [h] dominates reachable [p]: [h] is on [p]'s idom chain, which only
     climbs to lower ranks *)
  let rec dominates h p =
    p = h || (rank.(p) > rank.(h) && dominates h idom.(p))
  in
  (* back edge: s → h where h dominates s.  Loops come out of [back] in
     its fold order, which fixes the order among loops of equal body
     size that [Ir_opt.licm], [Ir_opt.partition_blocks] and [Licm_dom]
     process them in, so keys and latches go in in layout and terminator
     order, duplicates kept (test/frozen_loops.ml pins the result). *)
  let back = Hashtbl.create 8 in
  Array.iteri
    (fun p b ->
      if rank.(p) >= 0 then
        Array.iter
          (fun h ->
            if dominates h p then begin
              let l = bl.block.(h).label in
              let cur = try Hashtbl.find back l with Not_found -> [] in
              Hashtbl.replace back l (b.label :: cur)
            end)
          bl.succs.(p))
    bl.block;
  let loop_of_header header latches =
    (* body = header ∪ nodes that reach a latch without passing header *)
    let inside = Array.make (Array.length bl.block) false in
    inside.(bl.pos header) <- true;
    let body = ref (Iset.singleton header) in
    let rec up p =
      if not inside.(p) then begin
        inside.(p) <- true;
        body := Iset.add bl.block.(p).label !body;
        List.iter up preds.(p)
      end
    in
    List.iter (fun l -> up (bl.pos l)) latches;
    { header; body = !body; back_edges = latches }
  in
  let loops =
    Hashtbl.fold (fun h latches acc -> loop_of_header h latches :: acc) back []
  in
  List.sort (fun a b -> compare (Iset.cardinal a.body) (Iset.cardinal b.body)) loops

(* Static definition counts: instruction defs, an implicit def at entry
   for every parameter, and two for any [Loop_branch] counter so it can
   never look single-definition. *)
let def_counts f =
  let t = Hashtbl.create 64 in
  let bump r n =
    Hashtbl.replace t r (n + try Hashtbl.find t r with Not_found -> 0)
  in
  List.iter (fun p -> bump p 1) f.params;
  List.iter
    (fun b ->
      List.iter
        (fun i -> match instr_def i with Some d -> bump d 1 | None -> ())
        b.instrs;
      match b.term with Loop_branch (r, _, _) -> bump r 2 | _ -> ())
    f.blocks;
  t

let loop_defs f l =
  let defs = Hashtbl.create 32 in
  List.iter
    (fun b ->
      if Iset.mem b.label l.body then begin
        List.iter
          (fun i ->
            match instr_def i with
            | Some d -> Hashtbl.replace defs d ()
            | None -> ())
          b.instrs;
        (* a [Loop_branch] counter is decremented by the terminator on
           every iteration — loop-varying even with no instruction def *)
        match b.term with
        | Loop_branch (r, _, _) -> Hashtbl.replace defs r ()
        | _ -> ()
      end)
    f.blocks;
  defs

let insert_preheader f l instrs =
  let pre_label = fresh_label f in
  let pre = { label = pre_label; instrs; term = Jmp l.header } in
  List.iter
    (fun b ->
      if not (Iset.mem b.label l.body) then
        b.term <-
          map_targets (fun t -> if t = l.header then pre_label else t) b.term)
    f.blocks;
  let rec insert = function
    | [] -> [ pre ]
    | b :: rest when b.label = l.header -> pre :: b :: rest
    | b :: rest -> b :: insert rest
  in
  f.blocks <- insert f.blocks

let block_order_dfs f =
  let block_table = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_table b.label b) f.blocks;
  let seen = ref Iset.empty in
  let order = ref [] in
  let rec go l =
    if not (Iset.mem l !seen) then begin
      seen := Iset.add l !seen;
      (match Hashtbl.find_opt block_table l with
      | Some b -> List.iter go (successors b.term)
      | None -> ());
      order := l :: !order
    end
  in
  (match f.blocks with b :: _ -> go b.label | [] -> ());
  !order
