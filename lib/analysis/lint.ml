(* MinC lint — stanc3-style "pedantic mode" over the -O0 lowering.

   Runs on unoptimized VIR so the findings map one-to-one onto the source
   program: locals are still frame slots (slot 0..nparams-1 are the
   spilled parameters, higher slots follow declaration order) and no pass
   has folded away the conditions being judged.  Four families:

     - unused-local / unused-param: a slot that is never loaded;
     - unused-array: a local array never loaded or stored;
     - dead-store: a slot store no path ever reads before the next store
       or function exit (slot liveness via the dataflow framework);
     - always-true / always-false: a branch condition whose interval
       excludes 0 (or is exactly 0);
     - unreachable-switch-arm: a case key outside the scrutinee's
       interval, or shadowed by an earlier identical key. *)

open Vir.Ir
module Iset = Dataflow.Iset

type finding = { func : string; category : string; detail : string }

let finding_to_string f = Printf.sprintf "%s: [%s] %s" f.func f.category f.detail

(* Slot liveness: backward, gen = Slot_load, kill = Slot_store. *)
let slot_liveness (f : func) =
  Dataflow.liveness_solver
    ~uses:(function Slot_load (_, s) -> [ s ] | _ -> [])
    ~def:(function Slot_store (s, _) -> Some s | _ -> None)
    ~term_uses:(fun _ -> [])
    f

let lint_func (p : program) (f : func) : finding list =
  ignore p;
  let out = ref [] in
  let add category fmt =
    Printf.ksprintf
      (fun detail -> out := { func = f.fname; category; detail } :: !out)
      fmt
  in
  let nparams = List.length f.params in
  let slot_name s =
    if s < nparams then Printf.sprintf "parameter slot %d" s
    else Printf.sprintf "local slot %d" s
  in
  (* --- unused locals / parameters / arrays --- *)
  let loaded = Array.make (max 1 f.nslots) false in
  let arrays_touched = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Slot_load (_, s) -> if s < f.nslots then loaded.(s) <- true
          | Load (_, g, _) | Store (g, _, _) | Vload (_, g, _)
          | Vstore (g, _, _) ->
            Hashtbl.replace arrays_touched g ()
          | _ -> ())
        b.instrs)
    f.blocks;
  let unused = ref Iset.empty in
  for s = 0 to f.nslots - 1 do
    if not loaded.(s) then begin
      unused := Iset.add s !unused;
      add
        (if s < nparams then "unused-param" else "unused-local")
        "%s is never read" (slot_name s)
    end
  done;
  List.iter
    (fun (name, _, _) ->
      if not (Hashtbl.mem arrays_touched name) then
        add "unused-array" "local array %s is never used" name)
    f.local_arrays;
  (* --- dead stores (skip slots already reported unused) --- *)
  let slot_live = slot_liveness f in
  List.iteri
    (fun p b ->
      let live = Array.copy slot_live.live_out.(p) in
      List.iter
        (fun i ->
          (match i with
          | Slot_store (s, _)
            when (not (Dataflow.Bits.mem live s)) && not (Iset.mem s !unused)
            ->
            add "dead-store" "L%d: store to %s is never read" b.label
              (slot_name s)
          | _ -> ());
          match i with
          | Slot_store (s, _) -> Dataflow.Bits.remove live s
          | Slot_load (_, s) -> Dataflow.Bits.add live s
          | _ -> ())
        (List.rev b.instrs))
    f.blocks;
  (* --- interval-based condition and switch checks --- *)
  let _, itv_out = Dataflow.Interval.solve f in
  List.iter
    (fun b ->
      match Hashtbl.find_opt itv_out b.label with
      | None | Some Dataflow.Interval.Unreached -> ()
      | Some (Dataflow.Interval.Env env) -> (
        let itv_of = function
          | Imm n -> Dataflow.Interval.const n
          | Reg r -> Dataflow.Interval.lookup env r
        in
        match b.term with
        | Br (c, _, _) -> (
          match Dataflow.Interval.truth (itv_of c) with
          | Some true ->
            add "always-true" "L%d: branch condition is always true" b.label
          | Some false ->
            add "always-false" "L%d: branch condition is always false" b.label
          | None -> ())
        | Switch (v, cases, _) ->
          let itv = itv_of v in
          let seen = Hashtbl.create 8 in
          List.iter
            (fun (k, _) ->
              if Hashtbl.mem seen k then
                add "unreachable-switch-arm"
                  "L%d: case %d shadowed by an earlier identical case" b.label
                  k
              else begin
                Hashtbl.replace seen k ();
                if k < itv.Dataflow.Interval.lo || k > itv.Dataflow.Interval.hi
                then
                  add "unreachable-switch-arm"
                    "L%d: case %d is outside the scrutinee's range" b.label k
              end)
            cases
        | Ret _ | Jmp _ | Tail_call _ | Loop_branch _ -> ()))
    f.blocks;
  List.rev !out

let lint_program (p : program) : finding list =
  List.concat_map (lint_func p) p.funcs
