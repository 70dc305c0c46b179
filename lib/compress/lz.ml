(* LZ77 + order-0 adaptive arithmetic coding.

   The token stream is: per position, either a literal byte or a
   (length, distance) back-reference into a 32 KiB window.  Tokens are
   entropy-coded with a carry-less range coder (Subbotin style, 32-bit
   arithmetic done in OCaml's native ints with explicit masking) driven by
   three adaptive frequency models: main (256 literals + match marker),
   match length, and distance bucket; distance low bits are coded with a
   fixed uniform model.

   Two match finders produce the token stream (the container format and
   the decoder are shared, so any stream either finder emits decodes with
   the same [decompress]):

   - [Greedy] is the original finder, kept bit-for-bit stable as a
     differential oracle: it walks a fixed 64-deep hash chain, takes the
     longest match immediately, and never cuts a search short.
   - [Chained depth] is the throughput finder the NCD kernel runs on: the
     chain walk is bounded by [depth], a candidate is only length-counted
     after a one-byte prefilter at the current best length, the walk stops
     early once a "nice" match is found, and match emission is lazy
     (deferred one position when the next position matches longer). *)

let mask32 = 0xFFFFFFFF

let top = 1 lsl 24

let bot = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Compression levels                                                  *)
(* ------------------------------------------------------------------ *)

type level =
  | Greedy
  | Chained of int

let default_chain_depth = 128

let default_level_ref = ref (Chained default_chain_depth)

let set_default_level l = default_level_ref := l

let default_level () = !default_level_ref

let level_name = function
  | Greedy -> "greedy"
  | Chained d -> Printf.sprintf "chained-%d" d

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "greedy" -> Greedy
  | "chained" -> Chained default_chain_depth
  | s -> (
    let depth_of prefix =
      let p = String.length prefix in
      if String.length s > p && String.sub s 0 p = prefix then
        int_of_string_opt (String.sub s p (String.length s - p))
      else None
    in
    let depth =
      match depth_of "chained-" with
      | Some d -> Some d
      | None -> depth_of "chained:"
    in
    match depth with
    | Some d when d >= 1 -> Chained d
    | _ -> invalid_arg ("Lz.level_of_string: " ^ s))

(* ------------------------------------------------------------------ *)
(* Range coder                                                         *)
(* ------------------------------------------------------------------ *)

module Encoder = struct
  type t = {
    buf : Buffer.t;
    mutable low : int;
    mutable range : int;
  }

  let create () = { buf = Buffer.create 1024; low = 0; range = mask32 }

  let rec normalize t =
    if t.low lxor ((t.low + t.range) land mask32) < top then begin
      Buffer.add_char t.buf (Char.chr ((t.low lsr 24) land 0xFF));
      t.range <- (t.range lsl 8) land mask32;
      t.low <- (t.low lsl 8) land mask32;
      normalize t
    end
    else if t.range < bot then begin
      t.range <- (-t.low) land (bot - 1);
      Buffer.add_char t.buf (Char.chr ((t.low lsr 24) land 0xFF));
      t.range <- (t.range lsl 8) land mask32;
      t.low <- (t.low lsl 8) land mask32;
      normalize t
    end

  let encode t ~cum ~freq ~total =
    t.range <- t.range / total;
    t.low <- (t.low + (cum * t.range)) land mask32;
    t.range <- (t.range * freq) land mask32;
    normalize t

  let finish t =
    for _ = 1 to 4 do
      Buffer.add_char t.buf (Char.chr ((t.low lsr 24) land 0xFF));
      t.low <- (t.low lsl 8) land mask32
    done;
    Buffer.contents t.buf
end

module Decoder = struct
  type t = {
    src : string;
    mutable pos : int;
    mutable low : int;
    mutable code : int;
    mutable range : int;
  }

  let next_byte t =
    if t.pos < String.length t.src then begin
      let b = Char.code t.src.[t.pos] in
      t.pos <- t.pos + 1;
      b
    end
    else
      (* A valid stream is consumed exactly (the encoder's 4 flush bytes
         cover the decoder's lookahead), so running dry means the input
         is truncated or the header length lies.  Failing here stops the
         decoder from synthesizing unbounded output out of phantom zero
         bytes. *)
      invalid_arg "Lz.decompress: truncated input"

  let create src start =
    let t = { src; pos = start; low = 0; code = 0; range = mask32 } in
    for _ = 1 to 4 do
      t.code <- ((t.code lsl 8) lor next_byte t) land mask32
    done;
    t

  let rec normalize t =
    if t.low lxor ((t.low + t.range) land mask32) < top then begin
      t.code <- ((t.code lsl 8) lor next_byte t) land mask32;
      t.range <- (t.range lsl 8) land mask32;
      t.low <- (t.low lsl 8) land mask32;
      normalize t
    end
    else if t.range < bot then begin
      t.range <- (-t.low) land (bot - 1);
      t.code <- ((t.code lsl 8) lor next_byte t) land mask32;
      t.range <- (t.range lsl 8) land mask32;
      t.low <- (t.low lsl 8) land mask32;
      normalize t
    end

  let decode_freq t ~total =
    t.range <- t.range / total;
    let f = ((t.code - t.low) land mask32) / t.range in
    min f (total - 1)

  let decode_update t ~cum ~freq =
    t.low <- (t.low + (cum * t.range)) land mask32;
    t.range <- (t.range * freq) land mask32;
    normalize t
end

(* ------------------------------------------------------------------ *)
(* Adaptive order-0 model                                              *)
(* ------------------------------------------------------------------ *)

(* Adaptive symbol frequencies (all start at 1, +24 per coded symbol,
   halved with round-up once the total passes [bot - 256]) kept in a
   Fenwick tree, so the cumulative count an encode needs and the symbol
   search a decode needs are both O(log n).  Encoder and decoder run the
   same [update], which keeps them in sync. *)
module Fmodel = struct
  type t = {
    freq : int array;
    tree : int array;  (** 1-based Fenwick tree over [freq] *)
    mutable total : int;
    increment : int;
    limit : int;
  }

  let rebuild t =
    let n = Array.length t.freq in
    Array.fill t.tree 0 (n + 1) 0;
    for i = 1 to n do
      t.tree.(i) <- t.tree.(i) + t.freq.(i - 1);
      let j = i + (i land -i) in
      if j <= n then t.tree.(j) <- t.tree.(j) + t.tree.(i)
    done

  let create n =
    let t =
      {
        freq = Array.make n 1;
        tree = Array.make (n + 1) 0;
        total = n;
        increment = 24;
        limit = bot - 256;
      }
    in
    rebuild t;
    t

  (* sum of freq.(0 .. s-1) *)
  let cum_of t s =
    let c = ref 0 in
    let i = ref s in
    while !i > 0 do
      c := !c + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !c

  let rescale t =
    t.total <- 0;
    for i = 0 to Array.length t.freq - 1 do
      t.freq.(i) <- (t.freq.(i) + 1) / 2;
      t.total <- t.total + t.freq.(i)
    done;
    rebuild t

  let update t s =
    t.freq.(s) <- t.freq.(s) + t.increment;
    t.total <- t.total + t.increment;
    if t.total > t.limit then rescale t
    else begin
      let n = Array.length t.freq in
      let i = ref (s + 1) in
      while !i <= n do
        t.tree.(!i) <- t.tree.(!i) + t.increment;
        i := !i + (!i land - !i)
      done
    end

  let encode t enc s =
    Encoder.encode enc ~cum:(cum_of t s) ~freq:t.freq.(s) ~total:t.total;
    update t s

  (* Binary lifting down the tree: [pos] ends as the number of symbols
     whose cumulative range lies wholly at or below [f], which is the
     symbol whose range holds [f] (every frequency is at least 1). *)
  let decode t dec =
    let f = Decoder.decode_freq dec ~total:t.total in
    let n = Array.length t.freq in
    let pos = ref 0 and rem = ref f in
    let step = ref 1 in
    while 2 * !step <= n do
      step := 2 * !step
    done;
    while !step > 0 do
      let j = !pos + !step in
      if j <= n && t.tree.(j) <= !rem then begin
        pos := j;
        rem := !rem - t.tree.(j)
      end;
      step := !step / 2
    done;
    let s = !pos in
    Decoder.decode_update dec ~cum:(f - !rem) ~freq:t.freq.(s);
    update t s;
    s
end

(* Raw bits through the coder with a uniform model. *)
let encode_bits enc value nbits =
  for i = nbits - 1 downto 0 do
    let b = (value lsr i) land 1 in
    Encoder.encode enc ~cum:b ~freq:1 ~total:2
  done

let decode_bits dec nbits =
  let v = ref 0 in
  for _ = 1 to nbits do
    let f = Decoder.decode_freq dec ~total:2 in
    let b = if f >= 1 then 1 else 0 in
    Decoder.decode_update dec ~cum:b ~freq:1;
    v := (!v lsl 1) lor b
  done;
  !v

(* ------------------------------------------------------------------ *)
(* LZ77 match finders                                                  *)
(* ------------------------------------------------------------------ *)

let window_size = 32768

let min_match = 3

let max_match = 255 + min_match

let hash_bits = 15

let hash_of a b c = ((a lsl 10) lxor (b lsl 5) lxor c) land ((1 lsl hash_bits) - 1)

(* A match this long is good enough to stop the chain walk outright. *)
let nice_match = 160

(* Per-domain scratch shared by both finders.  The head table is 2^15
   entries — zeroing it on every call costs more than compressing a
   small stream, so entries are generation-stamped instead: a slot holds
   [base + position], and anything below the current [base] is stale.
   Nothing is ever cleared between calls; [base] advances by the input
   length each time.  Keyed by domain, so pool workers never share. *)
type workspace = {
  mutable head : int array;
  mutable prev : int array;
  mutable base : int;
  mutable scratch : Bytes.t;  (** reused backing for the pair view *)
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        head = Array.make (1 lsl hash_bits) 0;
        prev = [||];
        base = 1;
        scratch = Bytes.empty;
      })

let get_workspace n =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.prev < n then
    ws.prev <- Array.make (max n 1024) 0;
  if ws.base > max_int - (2 * n) - 2 then begin
    (* stamp overflow (practically unreachable): restart the epochs *)
    Array.fill ws.head 0 (Array.length ws.head) 0;
    ws.base <- 1
  end;
  ws

(* Reserve [n] stamps for one call: positions are stamped [base + pos]. *)
let claim ws n =
  let base = ws.base in
  ws.base <- base + n;
  base

(* Both finders read x·y as one flat string: the pair lands in the
   reused per-domain scratch (a blit, ~0.1% of the compression cost), so
   the tokenizers' inner loops run with unsafe reads and the NCD term
   C(x·y) allocates no [x ^ y].  A lone string is read in place. *)
let pair_view ws x y =
  let nx = String.length x and ny = String.length y in
  if ny = 0 then x
  else if nx = 0 then y
  else begin
    let n = nx + ny in
    if Bytes.length ws.scratch < n then
      ws.scratch <- Bytes.create (max n 1024);
    Bytes.blit_string x 0 ws.scratch 0 nx;
    Bytes.blit_string y 0 ws.scratch nx ny;
    Bytes.unsafe_to_string ws.scratch
  end

(* The original finder, frozen: a 64-candidate chain walk with no early
   exit, no prefilter, and immediate (greedy) emission.  Its token
   decisions — and therefore its output bytes — are the pre-overhaul
   behaviour the differential tests and the table1 [Greedy] sentinel pin
   down.  Do not "optimize" this path; that is what [Chained] is for. *)
let tokenize_greedy ws s n ~emit_literal ~emit_match =
  let head = ws.head and prev = ws.prev and base = claim ws n in
  let get i = String.unsafe_get s i in
  let hash i = hash_of (Char.code (get i)) (Char.code (get (i + 1))) (Char.code (get (i + 2))) in
  let match_len i j =
    let lim = min max_match (n - i) in
    let rec go k = if k < lim && get (i + k) = get (j + k) then go (k + 1) else k in
    go 0
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash i in
      prev.(i) <- head.(h);
      head.(h) <- base + i
    end
  in
  let i = ref 0 in
  while !i < n do
    let best_len = ref 0 and best_dist = ref 0 in
    if !i + min_match <= n then begin
      let cand = ref head.(hash !i) and chain = ref 0 in
      while !cand >= base && !chain < 64 do
        let c = !cand - base in
        let d = !i - c in
        if d > 0 && d <= window_size then begin
          let l = match_len !i c in
          if l > !best_len then begin
            best_len := l;
            best_dist := d
          end
        end;
        cand := prev.(c);
        incr chain
      done
    end;
    if !best_len >= min_match then begin
      emit_match !best_len !best_dist;
      let stop = !i + !best_len in
      (* Index the covered positions so later matches can reference them. *)
      while !i < stop do
        insert !i;
        incr i
      done
    end
    else begin
      emit_literal (get !i);
      insert !i;
      incr i
    end
  done

(* The hash-chain finder: depth-bounded walk, one-byte prefilter at the
   current best length, early exit on nice/maximal matches, and lazy
   one-step-deferred emission.  Tokens stream straight into [emit] — no
   intermediate list. *)
let tokenize_chained ~depth ws s n ~emit_literal ~emit_match =
  let head = ws.head and prev = ws.prev and base = claim ws n in
  (* [n <= String.length s] but may be smaller when [s] is the scratch
     view, so every read below is bounded by [n], never [String.length]. *)
  let get i = String.unsafe_get s i in
  let hash i = hash_of (Char.code (get i)) (Char.code (get (i + 1))) (Char.code (get (i + 2))) in
  (* [head.(h)] and [prev.(i)] hold stamped positions ([base + pos]); a
     value below [base] is empty or left over from an earlier call. *)
  let insert i =
    if i + min_match <= n then begin
      let h = hash i in
      prev.(i) <- head.(h);
      head.(h) <- base + i
    end
  in
  (* Longest match at [i] among the chain's candidates (all < i because
     [i] is inserted only after the search).  Returns (len, dist) with
     len = 0 when nothing reaches [min_match]. *)
  let find i =
    if i + min_match > n then (0, 0)
    else begin
      let lim = min max_match (n - i) in
      let best_len = ref (min_match - 1) and best_dist = ref 0 in
      let cand = ref head.(hash i) and budget = ref depth in
      (try
         while !cand >= base && !budget > 0 do
           let c = !cand - base in
           let d = i - c in
           (* the chain is ordered by position: every later candidate is
              further away, so one out-of-window hit ends the walk *)
           if d > window_size then raise_notrace Exit;
           (* prefilter: a candidate can only improve on [best_len] if it
              also matches at that offset — one compare rejects most *)
           if get (c + !best_len) = get (i + !best_len) then begin
             let rec go k =
               if k < lim && get (i + k) = get (c + k) then go (k + 1)
               else k
             in
             let l = go 0 in
             if l > !best_len then begin
               best_len := l;
               best_dist := d;
               if l >= nice_match || l >= lim then raise_notrace Exit
             end
           end;
           cand := prev.(c);
           decr budget
         done
       with Exit -> ());
      if !best_len >= min_match then (!best_len, !best_dist) else (0, 0)
    end
  in
  let i = ref 0 in
  let prev_len = ref 0 and prev_dist = ref 0 in
  let pending_literal = ref false in  (* position i-1 not yet emitted *)
  while !i < n do
    let len, dist = find !i in
    insert !i;
    if !prev_len >= min_match && len <= !prev_len then begin
      (* the deferred match at i-1 wins over anything starting at i *)
      emit_match !prev_len !prev_dist;
      let stop = !i - 1 + !prev_len in
      let j = ref (!i + 1) in
      while !j < stop do
        insert !j;
        incr j
      done;
      i := stop;
      prev_len := 0;
      pending_literal := false
    end
    else begin
      if !pending_literal then emit_literal (get (!i - 1));
      prev_len := len;
      prev_dist := dist;
      pending_literal := true;
      incr i
    end
  done;
  if !pending_literal then emit_literal (get (n - 1))

(* ------------------------------------------------------------------ *)
(* Container format                                                    *)
(* ------------------------------------------------------------------ *)

let header_size = 4

let put_u32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32 s off =
  let byte i = Char.code s.[off + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let match_marker = 256

(* Distance bucket: floor(log2 dist); extra bits reconstruct it exactly. *)
let dist_bucket d =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 d 0

(* Both finders stream their tokens into this one emitter. *)
let compress_segments level s1 s2 =
  let n = String.length s1 + String.length s2 in
  Telemetry.add_count ~by:n "lz.bytes_in";
  let enc = Encoder.create () in
  let main = Fmodel.create 257 in
  let len_model = Fmodel.create (max_match - min_match + 1) in
  let dist_model = Fmodel.create 16 in
  let emit_literal c = Fmodel.encode main enc (Char.code c) in
  let emit_match len dist =
    Fmodel.encode main enc match_marker;
    Fmodel.encode len_model enc (len - min_match);
    let bucket = dist_bucket dist in
    Fmodel.encode dist_model enc bucket;
    if bucket > 0 then encode_bits enc (dist - (1 lsl bucket)) bucket
  in
  let ws = get_workspace n in
  let s = pair_view ws s1 s2 in
  (match level with
  | Greedy -> tokenize_greedy ws s n ~emit_literal ~emit_match
  | Chained depth ->
    tokenize_chained ~depth:(max 1 depth) ws s n ~emit_literal ~emit_match);
  let coded = Encoder.finish enc in
  let out = Buffer.create (String.length coded + header_size) in
  put_u32 out n;
  Buffer.add_string out coded;
  Buffer.contents out

let compress s = compress_segments !default_level_ref s ""

let compress_pair x y = compress_segments !default_level_ref x y

let decompress packed =
  if String.length packed < header_size then
    invalid_arg "Lz.decompress: truncated input";
  let n = get_u32 packed 0 in
  let dec = Decoder.create packed header_size in
  let main = Fmodel.create 257 in
  let len_model = Fmodel.create (max_match - min_match + 1) in
  let dist_model = Fmodel.create 16 in
  let out = Buffer.create n in
  while Buffer.length out < n do
    let s = Fmodel.decode main dec in
    if s < match_marker then Buffer.add_char out (Char.chr s)
    else begin
      let len = Fmodel.decode len_model dec + min_match in
      let bucket = Fmodel.decode dist_model dec in
      let dist =
        if bucket = 0 then 1 else (1 lsl bucket) + decode_bits dec bucket
      in
      let start = Buffer.length out - dist in
      if start < 0 then invalid_arg "Lz.decompress: corrupt back-reference";
      for k = 0 to len - 1 do
        Buffer.add_char out (Buffer.nth out (start + k))
      done
    end
  done;
  Buffer.contents out

let compressed_size ?(level = !default_level_ref) s =
  String.length (compress_segments level s "")

let compressed_size_pair ?(level = !default_level_ref) x y =
  String.length (compress_segments level x y)
