type label = {
  profile : string;
  preset : string;
}

type model = {
  centroids : (label * float array) list;
  threshold : float;
}

(* The feature extractor lives in the binary static-analysis layer; the
   classifier consumes it unchanged (the vector is bit-identical to the
   historical in-module one, so trained accuracy is unaffected). *)
let nfeat = Binsight.Features.n_provenance

let distance a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := !d +. ((x -. b.(i)) ** 2.0)) a;
  sqrt !d

let train labelled =
  (* group by label, average features *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (lbl, bin) ->
      let f = Binsight.Features.provenance_vector bin in
      let cur = try Hashtbl.find groups lbl with Not_found -> [] in
      Hashtbl.replace groups lbl (f :: cur))
    labelled;
  let centroids =
    Hashtbl.fold
      (fun lbl fs acc ->
        let n = List.length fs in
        let c = Array.make nfeat 0.0 in
        List.iter (fun f -> Array.iteri (fun i x -> c.(i) <- c.(i) +. x) f) fs;
        let c = Array.map (fun x -> x /. float_of_int n) c in
        (lbl, c) :: acc)
      groups []
  in
  (* threshold: 95th percentile of in-class sample→own-centroid distance *)
  let dists =
    List.map
      (fun (lbl, bin) ->
        let c = List.assoc lbl centroids in
        distance (Binsight.Features.provenance_vector bin) c)
      labelled
  in
  let threshold = Util.Stats.percentile dists 0.95 *. 1.25 in
  { centroids; threshold = max threshold 0.01 }

let classify model bin =
  let f = Binsight.Features.provenance_vector bin in
  let best =
    List.fold_left
      (fun acc (lbl, c) ->
        let d = distance f c in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (lbl, d))
      None model.centroids
  in
  match best with
  | None -> ({ profile = "unknown"; preset = "non-default" }, infinity)
  | Some (lbl, d) ->
    if d > model.threshold then
      ({ profile = lbl.profile; preset = "non-default" }, d)
    else (lbl, d)

