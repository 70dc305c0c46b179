(* A small thread-safe tracing/metrics layer for the tuning stack.

   Three primitives — spans (timed regions), counters, gauges — feed two
   outputs: an optional ndjson event stream (one JSON object per line;
   spans and gauges are written as they happen, counters as running
   totals at each [flush]) and an always-on in-memory aggregation (per
   span name: call count, total/max seconds, per-domain busy time)
   rendered by [summary].

   The disabled instance ([null], the global default) short-circuits
   before taking any lock or allocating any event, so instrumented hot
   paths cost one load and one branch when tracing is off.  Telemetry
   only observes: nothing in here feeds back into tuning results, so
   enabling a sink cannot perturb the engine's determinism guarantees. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Wall clock clamped to be non-decreasing across all domains, so span
   durations never go negative if the system clock steps backwards. *)
let last_now = Atomic.make 0.0

let rec now () =
  let t = Unix.gettimeofday () in
  let prev = Atomic.get last_now in
  if t >= prev then if Atomic.compare_and_set last_now prev t then t else now ()
  else prev

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type sink = Null | Channel of out_channel | Buffer of Buffer.t

type span_stat = {
  mutable calls : int;
  mutable total : float;  (* seconds *)
  mutable max : float;
  by_domain : (int, float) Hashtbl.t;  (* domain id -> busy seconds *)
}

type gauge_stat = { mutable last : float; mutable peak : float }

(* [flushed] is the value the sink last saw; [flush] writes the counter
   again only once [value] has moved past it. *)
type counter = { mutable value : int; mutable flushed : int }

type t = {
  enabled : bool;
  sink : sink;
  mutex : Mutex.t;
  epoch : float;
  spans : (string, span_stat) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge_stat) Hashtbl.t;
}

let null =
  {
    enabled = false;
    sink = Null;
    mutex = Mutex.create ();
    epoch = 0.0;
    spans = Hashtbl.create 1;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
  }

let create ?(sink = Null) () =
  {
    enabled = true;
    sink;
    mutex = Mutex.create ();
    epoch = now ();
    spans = Hashtbl.create 64;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* ndjson emission                                                     *)
(* ------------------------------------------------------------------ *)

let escape_json b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Must be called with [t.mutex] held. *)
let emit_line t ~kind ~name ~ts ~domain ~fields ~attrs =
  match t.sink with
  | Null -> ()
  | Channel _ | Buffer _ ->
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"type\":\"";
    Buffer.add_string b kind;
    Buffer.add_string b "\",\"name\":\"";
    escape_json b name;
    Buffer.add_string b (Printf.sprintf "\",\"ts\":%.6f,\"domain\":%d" ts domain);
    List.iter
      (fun (k, v) ->
        Buffer.add_string b ",\"";
        Buffer.add_string b k;
        Buffer.add_string b "\":";
        Buffer.add_string b v)
      fields;
    (match attrs with
    | [] -> ()
    | attrs ->
      Buffer.add_string b ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_json b k;
          Buffer.add_string b "\":\"";
          escape_json b v;
          Buffer.add_char b '"')
        attrs;
      Buffer.add_char b '}');
    Buffer.add_string b "}\n";
    (match t.sink with
    | Channel oc -> output_string oc (Buffer.contents b)
    | Buffer dst -> Buffer.add_buffer dst b
    | Null -> ())

(* ------------------------------------------------------------------ *)
(* Global instance                                                     *)
(* ------------------------------------------------------------------ *)

(* Set once at startup (before worker domains exist) by the drivers;
   everything else reads it.  The default is the disabled instance. *)
let global_t = Atomic.make null

let set_global t = Atomic.set global_t t

let global () = Atomic.get global_t

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let domain_id () = (Domain.self () :> int)

let record_span t name ~start ~dur ~attrs =
  let domain = domain_id () in
  Mutex.lock t.mutex;
  let stat =
    match Hashtbl.find_opt t.spans name with
    | Some s -> s
    | None ->
      let s = { calls = 0; total = 0.0; max = 0.0; by_domain = Hashtbl.create 4 } in
      Hashtbl.replace t.spans name s;
      s
  in
  stat.calls <- stat.calls + 1;
  stat.total <- stat.total +. dur;
  if dur > stat.max then stat.max <- dur;
  Hashtbl.replace stat.by_domain domain
    (dur +. Option.value ~default:0.0 (Hashtbl.find_opt stat.by_domain domain));
  emit_line t ~kind:"span" ~name ~ts:(start -. t.epoch) ~domain
    ~fields:[ ("dur", Printf.sprintf "%.6f" dur) ]
    ~attrs;
  Mutex.unlock t.mutex

(* Ambient span attributes: a scope (e.g. the serve daemon's per-job
   "job" id) whose attributes are appended to every span recorded inside
   it.  Domain-local by design — spans recorded by pool workers on other
   domains do not inherit the scope (the worker's domain has its own,
   empty, slot), which keeps this allocation-free off the scoped path and
   lock-free everywhere. *)
let ambient_attrs : (string * string) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let with_ambient_attrs attrs f =
  let prev = Domain.DLS.get ambient_attrs in
  Domain.DLS.set ambient_attrs (attrs @ prev);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_attrs prev) f

let with_span ?(attrs = []) name f =
  let t = global () in
  if not t.enabled then f ()
  else begin
    let attrs =
      match Domain.DLS.get ambient_attrs with
      | [] -> attrs
      | ambient -> attrs @ ambient
    in
    let start = now () in
    match f () with
    | y ->
      record_span t name ~start ~dur:(now () -. start) ~attrs;
      y
    | exception e ->
      record_span t name ~start ~dur:(now () -. start)
        ~attrs:(("error", Printexc.to_string e) :: attrs);
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

(* A counter bump only adds to the in-memory total: per-call work
   counters (liveness solves, VM steps) fire tens of thousands of times a
   run, so the stream carries one running-total line per changed counter
   at each [flush] instead of one line per bump. *)
let add_count ?(by = 1) name =
  let t = global () in
  if t.enabled then begin
    Mutex.lock t.mutex;
    (match Hashtbl.find_opt t.counters name with
    | Some c -> c.value <- c.value + by
    | None -> Hashtbl.replace t.counters name { value = by; flushed = 0 });
    Mutex.unlock t.mutex
  end

let set_gauge name v =
  let t = global () in
  if t.enabled then begin
    let ts = now () -. t.epoch in
    Mutex.lock t.mutex;
    (match Hashtbl.find_opt t.gauges name with
    | Some g ->
      g.last <- v;
      if v > g.peak then g.peak <- v
    | None -> Hashtbl.replace t.gauges name { last = v; peak = v });
    emit_line t ~kind:"gauge" ~name ~ts ~domain:(domain_id ())
      ~fields:[ ("value", Printf.sprintf "%g" v) ]
      ~attrs:[];
    Mutex.unlock t.mutex
  end

(* ------------------------------------------------------------------ *)
(* Inspection and summary                                              *)
(* ------------------------------------------------------------------ *)

let counter_value t name =
  Mutex.lock t.mutex;
  let v =
    match Hashtbl.find_opt t.counters name with Some c -> c.value | None -> 0
  in
  Mutex.unlock t.mutex;
  v

let span_calls t name =
  Mutex.lock t.mutex;
  let v =
    match Hashtbl.find_opt t.spans name with Some s -> s.calls | None -> 0
  in
  Mutex.unlock t.mutex;
  v

let span_seconds t name =
  Mutex.lock t.mutex;
  let v =
    match Hashtbl.find_opt t.spans name with Some s -> s.total | None -> 0.0
  in
  Mutex.unlock t.mutex;
  v

let flush t =
  Mutex.lock t.mutex;
  let ts = now () -. t.epoch and domain = domain_id () in
  Hashtbl.fold
    (fun name c acc -> if c.value <> c.flushed then (name, c) :: acc else acc)
    t.counters []
  |> List.sort compare
  |> List.iter (fun (name, c) ->
         emit_line t ~kind:"count" ~name ~ts ~domain
           ~fields:[ ("value", string_of_int c.value) ]
           ~attrs:[];
         c.flushed <- c.value);
  (match t.sink with Channel oc -> Stdlib.flush oc | _ -> ());
  Mutex.unlock t.mutex

let summary t =
  if not t.enabled then "telemetry: disabled (no-op sink)\n"
  else begin
    Mutex.lock t.mutex;
    let wall = now () -. t.epoch in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "== telemetry summary (wall %.2fs) ==\n" wall);
    let spans =
      Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.spans []
      |> List.sort (fun (_, a) (_, c) -> compare c.total a.total)
    in
    if spans <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-28s %9s %10s %10s %10s %7s\n" "span" "calls"
           "total" "mean" "max" "wall%");
      List.iter
        (fun (name, s) ->
          Buffer.add_string b
            (Printf.sprintf "%-28s %9d %9.3fs %8.3fms %8.3fms %6.1f%%\n" name
               s.calls s.total
               (1000.0 *. s.total /. float_of_int (max 1 s.calls))
               (1000.0 *. s.max)
               (if wall > 0.0 then 100.0 *. s.total /. wall else 0.0)))
        spans
    end;
    let counters =
      Hashtbl.fold (fun name c acc -> (name, c.value) :: acc) t.counters []
      |> List.sort compare
    in
    if counters <> [] then begin
      Buffer.add_string b "-- counters --\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-28s %9d\n" name v))
        counters
    end;
    let gauges =
      Hashtbl.fold (fun name g acc -> (name, g) :: acc) t.gauges []
      |> List.sort compare
    in
    if gauges <> [] then begin
      Buffer.add_string b "-- gauges (last / peak) --\n";
      List.iter
        (fun (name, g) ->
          Buffer.add_string b
            (Printf.sprintf "%-28s %9g / %g\n" name g.last g.peak))
        gauges
    end;
    (* the paper's §4.2 cost breakdown: where a tuning run's time goes.
       Shown whenever the tuner spans were recorded at all — a run fast
       enough to measure 0.0s still gets the section (as zeros) rather
       than silently dropping it. *)
    let sec name =
      match Hashtbl.find_opt t.spans name with Some s -> s.total | None -> 0.0
    in
    let present name = Hashtbl.mem t.spans name in
    let layers = [ "compile"; "ncd"; "binhunt"; "check" ] in
    let secs = List.map (fun l -> sec ("tuner." ^ l)) layers in
    let measured = List.fold_left ( +. ) 0.0 secs in
    let denom = if measured > 0.0 then measured else 1.0 in
    if List.exists (fun l -> present ("tuner." ^ l)) layers then
      Buffer.add_string b
        (Printf.sprintf
           "-- cost split (paper §4.2) --\n%s  (of %.2fs measured)\n"
           (String.concat "  "
              (List.map2
                 (fun l s -> Printf.sprintf "%s %.1f%%" l (100.0 *. s /. denom))
                 layers secs))
           measured);
    (* per-domain busy time for the worker pool: the busy/idle picture *)
    (match Hashtbl.find_opt t.spans "pool.chunk" with
    | Some s when Hashtbl.length s.by_domain > 0 ->
      Buffer.add_string b "-- pool worker busy seconds (by domain) --\n";
      Hashtbl.fold (fun d busy acc -> (d, busy) :: acc) s.by_domain []
      |> List.sort compare
      |> List.iter (fun (d, busy) ->
             Buffer.add_string b
               (Printf.sprintf "domain %-3d %9.3fs busy  %9.3fs idle\n" d busy
                  (max 0.0 (wall -. busy))))
    | _ -> ());
    Mutex.unlock t.mutex;
    Buffer.contents b
  end
