(* Frozen pre-framework dataflow implementations, kept verbatim as
   differential oracles for [Analysis.Dataflow].

   Until the shared worklist solver landed, [Passes.Cleanup]'s liveness,
   [Codegen.Emit]'s vector liveness and [Passes.Cfg_utils.dominators]
   each carried their own round-robin iterate-until-stable loop.  Those
   loops are copied here unchanged: the liveness and dominator fixpoints
   are unique, so their replacements (today the dense liveness kernel
   and Cooper–Harvey–Kennedy dominators) must reproduce these tables
   exactly, on every function [Test_analysis] throws at them. *)

open Vir.Ir
module Iset = Analysis.Dataflow.Iset

let block_use_def b =
  (* use = registers read before any write in the block *)
  let use = ref Iset.empty and def = ref Iset.empty in
  let consider_instr i =
    List.iter
      (fun r -> if not (Iset.mem r !def) then use := Iset.add r !use)
      (instr_uses i);
    match instr_def i with
    | Some d -> def := Iset.add d !def
    | None -> ()
  in
  List.iter consider_instr b.instrs;
  List.iter
    (fun r -> if not (Iset.mem r !def) then use := Iset.add r !use)
    (term_uses b.term);
  (!use, !def)

let liveness f =
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let use_def = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace use_def b.label (block_use_def b);
      Hashtbl.replace live_in b.label Iset.empty;
      Hashtbl.replace live_out b.label Iset.empty)
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    (* iterate in reverse layout order for faster convergence *)
    List.iter
      (fun b ->
        let out =
          List.fold_left
            (fun acc s ->
              match Hashtbl.find_opt live_in s with
              | Some li -> Iset.union acc li
              | None -> acc)
            Iset.empty (successors b.term)
        in
        let use, def = Hashtbl.find use_def b.label in
        let inn = Iset.union use (Iset.diff out def) in
        if not (Iset.equal out (Hashtbl.find live_out b.label)) then begin
          Hashtbl.replace live_out b.label out;
          changed := true
        end;
        if not (Iset.equal inn (Hashtbl.find live_in b.label)) then begin
          Hashtbl.replace live_in b.label inn;
          changed := true
        end)
      (List.rev f.blocks)
  done;
  (live_in, live_out)

let vliveness (f : func) =
  let use_def = Hashtbl.create 16 in
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let use = ref Iset.empty and def = ref Iset.empty in
      List.iter
        (fun i ->
          List.iter
            (fun r -> if not (Iset.mem r !def) then use := Iset.add r !use)
            (instr_vuses i);
          match instr_vdef i with
          | Some d -> def := Iset.add d !def
          | None -> ())
        b.instrs;
      Hashtbl.replace use_def b.label (!use, !def);
      Hashtbl.replace live_in b.label Iset.empty;
      Hashtbl.replace live_out b.label Iset.empty)
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let out =
          List.fold_left
            (fun acc s ->
              match Hashtbl.find_opt live_in s with
              | Some li -> Iset.union acc li
              | None -> acc)
            Iset.empty (successors b.term)
        in
        let use, def = Hashtbl.find use_def b.label in
        let inn = Iset.union use (Iset.diff out def) in
        if not (Iset.equal out (Hashtbl.find live_out b.label)) then begin
          Hashtbl.replace live_out b.label out;
          changed := true
        end;
        if not (Iset.equal inn (Hashtbl.find live_in b.label)) then begin
          Hashtbl.replace live_in b.label inn;
          changed := true
        end)
      (List.rev f.blocks)
  done;
  (live_in, live_out)

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

let dominators f =
  let reach = reachable f in
  let blocks = List.filter (fun b -> Iset.mem b.label reach) f.blocks in
  let labels = List.map (fun b -> b.label) blocks in
  let all = Iset.of_list labels in
  let entry = (entry_block f).label in
  let preds_tbl = predecessors f in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if l = entry then Hashtbl.replace dom l (Iset.singleton entry)
      else Hashtbl.replace dom l all)
    labels;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          let preds =
            (try Hashtbl.find preds_tbl l with Not_found -> [])
            |> List.filter (fun p -> Iset.mem p reach)
          in
          let inter =
            List.fold_left
              (fun acc p ->
                let dp = Hashtbl.find dom p in
                match acc with
                | None -> Some dp
                | Some s -> Some (Iset.inter s dp))
              None preds
          in
          let nd =
            match inter with
            | None -> Iset.singleton l
            | Some s -> Iset.add l s
          in
          if not (Iset.equal nd (Hashtbl.find dom l)) then begin
            Hashtbl.replace dom l nd;
            changed := true
          end
        end)
      labels
  done;
  dom
