let buf_add_times b c n = for _ = 1 to n do Buffer.add_char b c done

let table ~header ~rows =
  let ncols = List.length header in
  let pad_row r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad_row rows in
  let widths = Array.make ncols 0 in
  let measure r =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      r
  in
  measure header;
  List.iter measure rows;
  let b = Buffer.create 256 in
  let emit_row r =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b cell;
        if i < ncols - 1 then
          buf_add_times b ' ' (widths.(i) - String.length cell))
      r;
    Buffer.add_char b '\n'
  in
  emit_row header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  buf_add_times b '-' total;
  Buffer.add_char b '\n';
  List.iter emit_row rows;
  Buffer.contents b

let bar_chart ~title data =
  let width = 50 in
  let b = Buffer.create 256 in
  Buffer.add_string b (title ^ "\n");
  let maxv = List.fold_left (fun acc (_, v) -> max acc v) 0.0 data in
  let maxv = if maxv <= 0.0 then 1.0 else maxv in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 data
  in
  let emit (label, v) =
    Buffer.add_string b "  ";
    Buffer.add_string b label;
    buf_add_times b ' ' (label_w - String.length label);
    Buffer.add_string b " |";
    let n = int_of_float (Float.round (v /. maxv *. float_of_int width)) in
    buf_add_times b '#' (max 0 n);
    Buffer.add_string b (Printf.sprintf " %.3f\n" v)
  in
  List.iter emit data;
  Buffer.contents b

let grouped_bars ~title ~series data =
  let width = 40 in
  let b = Buffer.create 512 in
  Buffer.add_string b (title ^ "\n");
  let maxv =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left max acc vs)
      0.0 data
  in
  let maxv = if maxv <= 0.0 then 1.0 else maxv in
  let series_w =
    List.fold_left (fun acc s -> max acc (String.length s)) 0 series
  in
  let emit (group, vs) =
    Buffer.add_string b (" " ^ group ^ "\n");
    List.iteri
      (fun i v ->
        let name = try List.nth series i with Failure _ -> "?" in
        Buffer.add_string b "   ";
        Buffer.add_string b name;
        buf_add_times b ' ' (series_w - String.length name);
        Buffer.add_string b " |";
        let n = int_of_float (Float.round (v /. maxv *. float_of_int width)) in
        buf_add_times b '#' (max 0 n);
        Buffer.add_string b (Printf.sprintf " %.3f\n" v))
      vs
  in
  List.iter emit data;
  Buffer.contents b

let series_plot ~title series =
  let height = 12 and width = 64 in
  let b = Buffer.create 1024 in
  Buffer.add_string b (title ^ "\n");
  let all_max =
    List.fold_left
      (fun acc (_, a) -> Array.fold_left max acc a)
      neg_infinity series
  in
  let all_min =
    List.fold_left
      (fun acc (_, a) -> Array.fold_left min acc a)
      infinity series
  in
  if series = [] || all_max = neg_infinity then Buffer.contents b
  else begin
    let lo = all_min and hi = if all_max = all_min then all_min +. 1.0 else all_max in
    let grid = Array.make_matrix height width ' ' in
    let marks = [| '*'; 'o'; '+'; 'x'; '.'; '@' |] in
    List.iteri
      (fun si (_, a) ->
        let n = Array.length a in
        if n > 0 then
          for col = 0 to width - 1 do
            let idx =
              if n = 1 then 0
              else col * (n - 1) / (max 1 (width - 1))
            in
            let v = a.(min idx (n - 1)) in
            let row =
              int_of_float
                (Float.round ((v -. lo) /. (hi -. lo) *. float_of_int (height - 1)))
            in
            let row = height - 1 - max 0 (min (height - 1) row) in
            grid.(row).(col) <- marks.(si mod Array.length marks)
          done)
      series;
    for r = 0 to height - 1 do
      let yval = hi -. (float_of_int r /. float_of_int (height - 1) *. (hi -. lo)) in
      Buffer.add_string b (Printf.sprintf "%8.3f |" yval);
      for c = 0 to width - 1 do
        Buffer.add_char b grid.(r).(c)
      done;
      Buffer.add_char b '\n'
    done;
    Buffer.add_string b "         +";
    buf_add_times b '-' width;
    Buffer.add_char b '\n';
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string b
          (Printf.sprintf "         %c = %s\n" marks.(si mod Array.length marks) name))
      series;
    Buffer.contents b
  end

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" line title line
