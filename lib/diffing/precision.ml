type report = {
  tool : string;
  hits : int;
  total : int;
  precision : float;
}

(* Functions with the "__real_" instrumentation prefix correspond to the
   same source function as their unprefixed name. *)
let canonical name =
  if String.length name > 7 && String.sub name 0 7 = "__real_" then
    String.sub name 7 (String.length name - 7)
  else name

let evaluate_analyzed (tool : Tools.tool) (ca : Bcode.t) (cb : Bcode.t) =
  let similarity = tool.similarity ca cb in
  let nb = Array.length cb.funcs in
  let hits = ref 0 and total = ref 0 in
  Array.iteri
    (fun i (fa : Bcode.func) ->
      if not fa.is_library then begin
        let truth = canonical fa.name in
        let exists_in_b =
          Array.exists
            (fun (fb : Bcode.func) -> canonical fb.name = truth)
            cb.funcs
        in
        if exists_in_b then begin
          incr total;
          let best = ref (-1) and best_score = ref neg_infinity in
          for j = 0 to nb - 1 do
            let s = similarity i j in
            if s > !best_score then begin
              best_score := s;
              best := j
            end
          done;
          if !best >= 0 && canonical cb.funcs.(!best).name = truth then
            incr hits
        end
      end)
    ca.funcs;
  {
    tool = tool.tool_name;
    hits = !hits;
    total = !total;
    precision =
      (if !total = 0 then 0.0 else float_of_int !hits /. float_of_int !total);
  }

let evaluate tool bin_a bin_b =
  evaluate_analyzed tool (Bcode.analyze bin_a) (Bcode.analyze bin_b)

let evaluate_all bin_a bin_b =
  let ca = Bcode.analyze bin_a and cb = Bcode.analyze bin_b in
  List.map (fun t -> evaluate_analyzed t ca cb) Tools.all
