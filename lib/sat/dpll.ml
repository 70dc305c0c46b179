type literal = Pos of int | Neg of int

type clause = literal list

type cnf = clause list

type result =
  | Sat of bool array
  | Unsat

let var = function Pos v | Neg v -> v

let sat_under assignment = function
  | Pos v -> assignment.(v) = Some true
  | Neg v -> assignment.(v) = Some false

let falsified_under assignment = function
  | Pos v -> assignment.(v) = Some false
  | Neg v -> assignment.(v) = Some true

let eval_clause assignment c =
  List.exists (function Pos v -> assignment.(v) | Neg v -> not assignment.(v)) c

let eval assignment cnf = List.for_all (eval_clause assignment) cnf

let max_var cnf =
  List.fold_left
    (fun acc c -> List.fold_left (fun acc l -> max acc (var l)) acc c)
    (-1) cnf

(* Unit propagation: repeatedly assign forced literals.  Always returns the
   trail of variables it assigned (so the caller can undo it on backtrack),
   paired with a conflict indicator. *)
let propagate assignment cnf =
  let trail = ref [] in
  let conflict = ref false in
  let changed = ref true in
  while !changed && not !conflict do
    changed := false;
    let check_clause c =
      if (not !conflict) && not (List.exists (sat_under assignment) c) then begin
        let unassigned =
          List.filter (fun l -> assignment.(var l) = None) c
        in
        match unassigned with
        | [] -> conflict := true
        | [ l ] ->
          let v = var l in
          assignment.(v) <- Some (match l with Pos _ -> true | Neg _ -> false);
          trail := v :: !trail;
          changed := true
        | _ :: _ :: _ -> ()
      end
    in
    List.iter check_clause cnf
  done;
  (!trail, !conflict)

let solve_assigned nvars cnf initial =
  let assignment = Array.make nvars None in
  List.iter
    (fun l ->
      let v = var l in
      assignment.(v) <- Some (match l with Pos _ -> true | Neg _ -> false))
    initial;
  (* Check initial assignment does not immediately falsify a clause made of
     assigned literals only. *)
  let initially_conflicting =
    List.exists (fun c -> List.for_all (falsified_under assignment) c) cnf
  in
  if initially_conflicting then Unsat
  else begin
    let undo trail = List.iter (fun v -> assignment.(v) <- None) trail in
    let rec search () =
      let trail, conflict = propagate assignment cnf in
      if conflict then begin
        undo trail;
        false
      end
      else begin
        let next_unassigned =
          let rec find i =
            if i >= nvars then None
            else if assignment.(i) = None then Some i
            else find (i + 1)
          in
          find 0
        in
        (match next_unassigned with
        | None -> true
        | Some v ->
          let try_value b =
            assignment.(v) <- Some b;
            if search () then true
            else begin
              assignment.(v) <- None;
              false
            end
          in
          if try_value false || try_value true then true
          else begin
            undo trail;
            false
          end)
      end
    in
    if search () then
      Sat (Array.map (function Some b -> b | None -> false) assignment)
    else Unsat
  end

let solve ?nvars cnf =
  let nvars = match nvars with Some n -> n | None -> max_var cnf + 1 in
  if nvars <= 0 then Sat [||] else solve_assigned nvars cnf []

let solve_with_assumptions ?nvars cnf assumptions =
  let nvars =
    match nvars with
    | Some n -> n
    | None ->
      let m = max_var cnf in
      let m =
        List.fold_left (fun acc l -> max acc (var l)) m assumptions
      in
      m + 1
  in
  if nvars <= 0 then Sat [||] else solve_assigned nvars cnf assumptions
