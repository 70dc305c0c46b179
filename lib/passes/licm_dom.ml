open Vir.Ir
module Iset = Analysis.Dataflow.Iset

(* Aggressive loop-invariant code motion on the dominator instance.

   Differences from the single-round bet in {!Ir_opt.licm}:
   - whole invariant *chains* hoist in one application (an operand
     defined inside the loop is fine if its defining instruction is
     itself marked invariant);
   - pure [Select]s are candidates, not just Bin/Un/Mov;
   - a candidate's definition must dominate every use of its register,
     which makes the pass sound on arbitrary CFGs — a conditionally
     executed single def whose register is read on other paths (where it
     still holds 0) is never speculated into the preheader;
   - [Loop_branch] counters are treated as loop-varying and
     multiply-defined, since the terminator's decrement is a def the
     instruction stream doesn't show.

   Loops are processed outermost-first, as in {!Ir_opt.licm}: an inner
   loop's preheader is outside its enclosing loops' precomputed bodies,
   so instructions moved there must not be re-examined by an outer loop
   working from stale body sets.  Dominators and def/use sites are
   recomputed per loop because each preheader changes the CFG. *)

let pure_candidate = function
  | Bin _ | Un _ | Mov _ | Select _ -> true
  | Load _ | Store _ | Slot_load _ | Slot_store _ | Call _ | Vload _
  | Vstore _ | Vbin _ | Vsplat _ | Vpack _ | Vreduce _ | Print_int _
  | Print_char _ | Read_input _ | Input_len _ ->
    false

let run f =
  let hoisted_total = ref 0 in
  let process (l : Cfg_utils.loop) =
    let body = l.body in
    let dom = Cfg_utils.dominators f in
    let def_count = Cfg_utils.def_counts f in
    let use_sites = Hashtbl.create 64 in
    let use r site =
      Hashtbl.replace use_sites r
        (site :: (try Hashtbl.find use_sites r with Not_found -> []))
    in
    List.iter
      (fun b ->
        List.iteri
          (fun idx i -> List.iter (fun r -> use r (b.label, idx)) (instr_uses i))
          b.instrs;
        List.iter (fun r -> use r (b.label, max_int)) (term_uses b.term))
      f.blocks;
    let defined_in_loop = Cfg_utils.loop_defs f l in
    let marked = Hashtbl.create 16 in
    let order = ref [] in
    (* every use of [d] must be dominated by its definition site *)
    let def_dominates_uses d (dl, di) =
      List.for_all
        (fun (ul, ui) ->
          if ul = dl then di < ui
          else
            match Hashtbl.find_opt dom ul with
            | Some doms -> Iset.mem dl doms
            | None -> false (* use in an unreachable block: give up *))
        (try Hashtbl.find use_sites d with Not_found -> [])
    in
    let invariant_reg r =
      not (Hashtbl.mem defined_in_loop r) || Hashtbl.mem marked r
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if Iset.mem b.label body then
            List.iteri
              (fun idx i ->
                match instr_def i with
                | Some d
                  when (not (Hashtbl.mem marked d))
                       && pure_candidate i
                       && Hashtbl.find_opt def_count d = Some 1
                       && (not (List.mem d (instr_uses i)))
                       && List.for_all invariant_reg (instr_uses i)
                       && def_dominates_uses d (b.label, idx) ->
                  Hashtbl.replace marked d ();
                  (* marking order is a topological order of the chain:
                     an instruction only qualifies once its marked
                     operands already are *)
                  order := i :: !order;
                  changed := true
                | _ -> ())
              b.instrs)
        f.blocks
    done;
    if Hashtbl.length marked > 0 then begin
      List.iter
        (fun b ->
          if Iset.mem b.label body then
            b.instrs <-
              List.filter
                (fun i ->
                  match instr_def i with
                  | Some d -> not (Hashtbl.mem marked d)
                  | None -> true)
                b.instrs)
        f.blocks;
      Cfg_utils.insert_preheader f l (List.rev !order);
      hoisted_total := !hoisted_total + Hashtbl.length marked
    end
  in
  List.iter process (List.rev (Cfg_utils.natural_loops f));
  if !hoisted_total > 0 then
    Telemetry.add_count ~by:!hoisted_total "pass.licm_dom.hoisted"
