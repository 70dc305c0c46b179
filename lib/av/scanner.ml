let fleet_size = 60

let code_scanners = 42

let data_scanners = 12

let structure_scanners = fleet_size - code_scanners - data_scanners

let () = assert (structure_scanners > 0)

type signature =
  | Code_seq of string  (** opcode-class sequence *)
  | Data_gram of string  (** raw data bytes *)
  | Call_shape of int  (** hashed call-graph fingerprint *)

type fleet = { sigs : signature list array }

let contains_str hay needle =
  let n = String.length hay and m = String.length needle in
  if m = 0 || m > n then false
  else begin
    let rec at i j = j >= m || (hay.[i + j] = needle.[j] && at i (j + 1)) in
    let rec scan i = i + m <= n && (at i 0 || scan (i + 1)) in
    scan 0
  end

let call_fingerprints (bin : Isa.Binary.t) =
  let c = Diffing.Bcode.analyze bin in
  Array.to_list c.funcs
  |> List.map (fun (f : Diffing.Bcode.func) ->
         Hashtbl.hash (List.length f.calls, f.calls, Array.length f.blocks))

let train ?(goodware = []) ~seed (bin : Isa.Binary.t) =
  let rng = Util.Rng.create seed in
  let kinds = Diffing.Bcode.code_stream bin in
  let nkinds = String.length kinds in
  let data = bin.data in
  let shapes = call_fingerprints bin in
  let good_kinds = List.map Diffing.Bcode.code_stream goodware in
  let good_data = List.map (fun g -> g.Isa.Binary.data) goodware in
  let good_shapes = List.concat_map call_fingerprints goodware in
  let sigs =
    Array.init fleet_size (fun scanner ->
        let srng = Util.Rng.split rng in
        if scanner < code_scanners then begin
          (* 2-4 opcode-kind sequences; candidates that also occur in the
             goodware pool are generic compiler output, not malware — a
             vendor would reject them as false-positive bait *)
          let n = 2 + Util.Rng.int srng 3 in
          List.init n (fun _ ->
              let rec draw tries =
                let len = 24 + Util.Rng.int srng 25 in
                let start = Util.Rng.int srng (max 1 (nkinds - len)) in
                let seq = String.sub kinds start (min len (nkinds - start)) in
                let generic =
                  List.exists (fun gk -> contains_str gk seq) good_kinds
                in
                if generic && tries < 20 then draw (tries + 1) else Code_seq seq
              in
              draw 0)
        end
        else if scanner < code_scanners + data_scanners then begin
          let n = 1 + Util.Rng.int srng 2 in
          List.init n (fun _ ->
              let rec draw tries =
                let len = 16 + Util.Rng.int srng 17 in
                let start =
                  Util.Rng.int srng (max 1 (String.length data - len))
                in
                let gram =
                  String.sub data start (min len (String.length data - start))
                in
                let generic =
                  List.exists (fun gd -> contains_str gd gram) good_data
                in
                if generic && tries < 200 then draw (tries + 1)
                else Data_gram gram
              in
              draw 0)
        end
        else begin
          let distinctive =
            List.filter (fun h -> not (List.mem h good_shapes)) shapes
          in
          let pool = if distinctive = [] then shapes else distinctive in
          List.init 2 (fun _ ->
              Call_shape (List.nth pool (Util.Rng.int srng (List.length pool))))
        end)
  in
  { sigs }

let detections_by_class fleet (bin : Isa.Binary.t) =
  let kinds = Diffing.Bcode.code_stream bin in
  let shapes = call_fingerprints bin in
  let code = ref 0 and data = ref 0 and structure = ref 0 in
  Array.iteri
    (fun scanner sigs ->
      let hit =
        List.exists
          (fun s ->
            match s with
            | Code_seq seq -> contains_str kinds seq
            | Data_gram g -> contains_str bin.data g
            | Call_shape h -> List.mem h shapes)
          sigs
      in
      if hit then
        if scanner < code_scanners then incr code
        else if scanner < code_scanners + data_scanners then incr data
        else incr structure)
    fleet.sigs;
  (!code, !data, !structure)

let detections fleet bin =
  let c, d, s = detections_by_class fleet bin in
  c + d + s
