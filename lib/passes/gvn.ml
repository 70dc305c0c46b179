open Vir.Ir

(* Global value numbering over the dominator tree.

   A pure expression (Bin/Un/Select) whose operands are immediates or
   single-definition registers gets a canonical key; a later instruction
   in a dominated position computing the same key is replaced by a copy
   from the first computation's destination.  Replacement is 1-for-1
   ([Mov] for the original), so the pass never grows the instruction
   count.

   Soundness does not assume SSA — only single *static* definitions:
   - a key is registered only where every register operand's definition
     has already been seen on the current dominator-tree path, so the
     operands' reads at the two sites observe the same (post-definition)
     values;
   - registers mutated by a [Loop_branch] terminator are never
     single-definition (the decrement is a def the instruction stream
     doesn't show);
   - an instruction reading its own destination is skipped outright. *)

type ekey =
  | Kbin of binop * operand * operand
  | Kun of unop * operand
  | Ksel of operand * operand * operand

let run f =
  let children = Cfg_utils.dom_children f in
  let counts = Cfg_utils.def_counts f in
  let single_def r = Hashtbl.find_opt counts r = Some 1 in
  let entry = match f.blocks with b :: _ -> b.label | [] -> -1 in
  let block_of = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_of b.label b) f.blocks;
  let table : (ekey, int) Hashtbl.t = Hashtbl.create 64 in
  (* registers whose (unique) definition lies on the dominator-tree path
     above the current program point; parameters are defined at entry *)
  let defined = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defined p ()) f.params;
  let key_of i =
    let ok d o =
      match o with
      | Imm _ -> true
      | Reg r -> r <> d && single_def r && Hashtbl.mem defined r
    in
    match i with
    | Bin (op, d, a, b) when ok d a && ok d b ->
      let a, b =
        if commutative op && compare b a < 0 then (b, a) else (a, b)
      in
      Some (d, Kbin (op, a, b))
    | Un (op, d, a) when ok d a -> Some (d, Kun (op, a))
    | Select (d, c, a, b) when ok d c && ok d a && ok d b ->
      Some (d, Ksel (c, a, b))
    | _ -> None
  in
  let replaced = ref 0 in
  let rec visit l =
    match Hashtbl.find_opt block_of l with
    | None -> ()
    | Some b ->
      let added_keys = ref [] in
      let added_defs = ref [] in
      b.instrs <-
        List.map
          (fun i ->
            let i =
              match key_of i with
              | Some (d, k) -> (
                match Hashtbl.find_opt table k with
                | Some rep when rep <> d ->
                  incr replaced;
                  Mov (d, Reg rep)
                | Some _ -> i
                | None ->
                  if single_def d then begin
                    Hashtbl.add table k d;
                    added_keys := k :: !added_keys
                  end;
                  i)
              | None -> i
            in
            (match instr_def i with
            | Some d when not (Hashtbl.mem defined d) ->
              Hashtbl.replace defined d ();
              added_defs := d :: !added_defs
            | _ -> ());
            i)
          b.instrs;
      List.iter visit (children l);
      List.iter (fun k -> Hashtbl.remove table k) !added_keys;
      List.iter (fun d -> Hashtbl.remove defined d) !added_defs
  in
  if f.blocks <> [] then visit entry;
  if !replaced > 0 then Telemetry.add_count ~by:!replaced "pass.gvn.replaced"
