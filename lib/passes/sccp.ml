open Vir.Ir
module CP = Analysis.Dataflow.Constprop
module IV = Analysis.Dataflow.Interval

(* Sparse conditional constant propagation on the shared dataflow
   instances.  The constprop lattice drives operand substitution and
   instruction folding; the interval instance additionally prunes branch
   and switch edges the constant lattice alone cannot prove dead (a
   condition known nonzero without a known value, a switch arm outside
   the scrutinee's range).

   The transform is deliberately split from the driver: [transform] does
   one monotone rewrite round and reports what it pruned, so tests can
   cross-check every pruned edge against fresh analysis facts on the
   pristine function; [run] iterates rounds with CFG cleanup in between,
   because pruning an edge sharpens the join at its former target and can
   expose further constants. *)

type stats = { folds : int; pruned_edges : (int * int) list }

let transform f =
  let cp_in, _ = CP.solve f in
  let _, iv_out = IV.solve f in
  let folds = ref 0 in
  let pruned = ref [] in
  List.iter
    (fun b ->
      match Hashtbl.find_opt cp_in b.label with
      | None | Some CP.Unreached ->
        (* statically dead block: leave it for simplify_cfg *)
        ()
      | Some (CP.Env env0) ->
        let env = ref env0 in
        let subst o =
          match o with
          | Imm _ -> o
          | Reg r -> (
            match CP.lookup !env r with CP.Const v -> Imm v | CP.Top -> o)
        in
        b.instrs <-
          List.map
            (fun i ->
              let i' = map_operands subst i in
              let i' =
                match i' with
                | Bin (op, d, Imm a, Imm b') ->
                  Mov (d, Imm (eval_binop op a b'))
                | Un (op, d, Imm a) -> Mov (d, Imm (eval_unop op a))
                | Select (d, Imm c, x, y) -> Mov (d, if c <> 0 then x else y)
                | other -> other
              in
              (* advance on the original instruction: the rewrite preserves
                 its effect on the environment *)
              env := CP.eval_instr !env i;
              if i' <> i then incr folds;
              i')
            b.instrs;
        (* The terminator executes on the post-instruction state — NOT the
           solver's out-fact, which has already cleared a [Loop_branch]
           counter for the benefit of successors. *)
        let old_term = b.term in
        let t = term_map_operands subst old_term in
        let interval_env () =
          match Hashtbl.find_opt iv_out b.label with
          | Some (IV.Env ienv) -> Some ienv
          | Some IV.Unreached | None -> None
        in
        let t =
          match t with
          | Br (Imm c, a, b') -> Jmp (if c <> 0 then a else b')
          | Br (Reg r, a, _) -> (
            (* sign-definite condition: nonzero picks the true arm *)
            match interval_env () with
            | Some ienv when IV.truth (IV.lookup ienv r) = Some true -> Jmp a
            | Some _ | None -> t)
          | Switch (Imm v, cases, d) ->
            Jmp (try List.assoc v cases with Not_found -> d)
          | Switch (Reg r, cases, d) -> (
            match interval_env () with
            | Some ienv ->
              let itv = IV.lookup ienv r in
              let keep =
                List.filter
                  (fun (k, _) -> k >= itv.IV.lo && k <= itv.IV.hi)
                  cases
              in
              if keep = [] then Jmp d
              else if List.length keep < List.length cases then
                Switch (Reg r, keep, d)
              else t
            | None -> t)
          | other -> other
        in
        if t <> old_term then begin
          b.term <- t;
          incr folds;
          let new_succs = successors t in
          List.iter
            (fun s ->
              if not (List.mem s new_succs) then
                pruned := (b.label, s) :: !pruned)
            (successors old_term)
        end)
    f.blocks;
  { folds = !folds; pruned_edges = List.rev !pruned }

let run f =
  let folds = ref 0 and pruned = ref 0 in
  (* Every rewrite is one-way (operands go Reg→Imm, instructions decay to
     Mov, edge sets shrink), so the fixpoint exists; the bound is a
     backstop, far above the pruning depth of any real function. *)
  let rec go n =
    if n > 0 then begin
      let s = transform f in
      folds := !folds + s.folds;
      pruned := !pruned + List.length s.pruned_edges;
      if s.folds > 0 then begin
        Cleanup.simplify_cfg f;
        Cleanup.dce f;
        go (n - 1)
      end
    end
  in
  go 32;
  if !folds > 0 then Telemetry.add_count ~by:!folds "pass.sccp.folds";
  if !pruned > 0 then Telemetry.add_count ~by:!pruned "pass.sccp.pruned_edges"
