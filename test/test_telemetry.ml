(* Tests for the telemetry layer: no-op semantics of the disabled
   instance, aggregation, the ndjson event stream, thread-safety across
   domains, and the global-instance plumbing the tuning stack uses. *)

exception Probe

(* substring search without the [Str] dependency *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Recording goes through the process-global instance only, so each test
   installs its own instance for its duration. *)
let with_global t f =
  Telemetry.set_global t;
  Fun.protect ~finally:(fun () -> Telemetry.set_global Telemetry.null) f

let test_null_is_noop () =
  let t = Telemetry.null in
  with_global t (fun () ->
      (* operations neither fail nor record anything *)
      Alcotest.(check int) "span passes value through" 41
        (Telemetry.with_span "x" (fun () -> 41));
      Telemetry.add_count "c";
      Telemetry.set_gauge "g" 3.0;
      Alcotest.(check int) "no counter" 0 (Telemetry.counter_value t "c");
      Alcotest.(check int) "no span" 0 (Telemetry.span_calls t "x");
      Alcotest.(check bool) "summary says disabled" true
        (contains (Telemetry.summary t) "disabled");
      (* exceptions still propagate through a disabled span *)
      Alcotest.check_raises "raise through null span" Probe (fun () ->
          Telemetry.with_span "x" (fun () -> raise Probe)))

let test_aggregation () =
  let t = Telemetry.create () in
  with_global t (fun () ->
      ignore (Telemetry.with_span "work" (fun () -> 1));
      ignore (Telemetry.with_span "work" (fun () -> 2));
      Telemetry.add_count "events";
      Telemetry.add_count ~by:4 "events";
      Telemetry.set_gauge "depth" 2.0;
      Telemetry.set_gauge "depth" 7.0;
      Telemetry.set_gauge "depth" 3.0);
  Alcotest.(check int) "span calls" 2 (Telemetry.span_calls t "work");
  Alcotest.(check bool) "span seconds non-negative" true
    (Telemetry.span_seconds t "work" >= 0.0);
  Alcotest.(check int) "counter sums" 5 (Telemetry.counter_value t "events");
  let s = Telemetry.summary t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (contains s needle))
    [ "work"; "events"; "depth" ]

let test_span_records_on_exception () =
  let t = Telemetry.create () in
  with_global t (fun () ->
      Alcotest.check_raises "re-raised" Probe (fun () ->
          Telemetry.with_span "failing" (fun () -> raise Probe)));
  Alcotest.(check int) "span still recorded" 1
    (Telemetry.span_calls t "failing")

(* pull one field out of a flat one-line JSON object without a JSON
   dependency: the emitter writes ["name":"<value>"] unescaped-quote-free *)
let json_field line key =
  let marker = "\"" ^ key ^ "\":\"" in
  let m = String.length marker and n = String.length line in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then begin
      let start = i + m in
      let stop = String.index_from line start '"' in
      Some (String.sub line start (stop - start))
    end
    else find (i + 1)
  in
  find 0

let lines_of buf =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

let test_ndjson_stream () =
  let buf = Buffer.create 256 in
  let t = Telemetry.create ~sink:(Telemetry.Buffer buf) () in
  with_global t (fun () ->
      ignore (Telemetry.with_span ~attrs:[ ("k", "v") ] "alpha" (fun () -> ()));
      Telemetry.add_count "beta";
      Telemetry.set_gauge "gamma" 1.5);
  (* spans and gauges stream as they happen; counters wait for flush *)
  Alcotest.(check int) "two events before flush" 2 (List.length (lines_of buf));
  Telemetry.flush t;
  let lines = lines_of buf in
  Alcotest.(check int) "three events" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a json object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check (list (option string)))
    "event names in order"
    [ Some "alpha"; Some "gamma"; Some "beta" ]
    (List.map (fun l -> json_field l "name") lines);
  (* the span line carries its attribute *)
  Alcotest.(check (option string)) "span attr" (Some "v")
    (json_field (List.hd lines) "k")

let test_ndjson_escaping () =
  let buf = Buffer.create 64 in
  let t = Telemetry.create ~sink:(Telemetry.Buffer buf) () in
  with_global t (fun () -> Telemetry.add_count "quote\"back\\slash");
  Telemetry.flush t;
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check bool) "escaped quote" true
    (contains line "quote\\\"back\\\\slash")

(* A counter costs the stream one running-total line per flush that
   follows a change, however often it was bumped. *)
let test_counts_aggregate_until_flush () =
  let buf = Buffer.create 256 in
  let t = Telemetry.create ~sink:(Telemetry.Buffer buf) () in
  with_global t (fun () ->
      for _ = 1 to 1000 do
        Telemetry.add_count "solves"
      done);
  Alcotest.(check int) "no line before flush" 0 (List.length (lines_of buf));
  Telemetry.flush t;
  let lines = lines_of buf in
  Alcotest.(check int) "one line after flush" 1 (List.length lines);
  let line = List.hd lines in
  Alcotest.(check bool) "line carries the total" true
    (contains line "\"type\":\"count\"" && contains line "\"value\":1000");
  Telemetry.flush t;
  Alcotest.(check int) "an unchanged counter writes nothing" 1
    (List.length (lines_of buf));
  with_global t (fun () -> Telemetry.add_count ~by:5 "solves");
  Telemetry.flush t;
  Alcotest.(check bool) "next flush carries the running total" true
    (contains (List.nth (lines_of buf) 1) "\"value\":1005")

let test_cost_split_in_summary () =
  let t = Telemetry.create () in
  with_global t (fun () ->
      List.iter
        (fun name -> ignore (Telemetry.with_span name (fun () -> ())))
        [ "tuner.compile"; "tuner.ncd"; "tuner.binhunt"; "tuner.check" ]);
  let s = Telemetry.summary t in
  Alcotest.(check bool) "cost split present" true (contains s "cost split");
  Alcotest.(check bool) "functional check share present" true
    (contains s "%  check ")

let test_multidomain_counts () =
  (* concurrent recording from several domains must neither crash nor
     lose increments *)
  let t = Telemetry.create () in
  let per_domain = 2000 and domains = 4 in
  let work () =
    for _ = 1 to per_domain do
      Telemetry.add_count "hits";
      ignore (Telemetry.with_span "tick" (fun () -> ()))
    done
  in
  with_global t (fun () ->
      let ds = List.init (domains - 1) (fun _ -> Domain.spawn work) in
      work ();
      List.iter Domain.join ds);
  Alcotest.(check int) "no lost counts" (domains * per_domain)
    (Telemetry.counter_value t "hits");
  Alcotest.(check int) "no lost spans" (domains * per_domain)
    (Telemetry.span_calls t "tick")

let test_global_default_disabled () =
  (* the tuning stack runs against the global instance; out of the box it
     must be the disabled null instance *)
  Alcotest.(check bool) "global starts disabled" true
    (Telemetry.global () == Telemetry.null);
  ignore (Telemetry.with_span "x" (fun () -> ()));
  Telemetry.add_count "x";
  Telemetry.set_gauge "x" 1.0;
  Alcotest.(check int) "still nothing recorded" 0
    (Telemetry.counter_value (Telemetry.global ()) "x")

let test_set_global () =
  let t = Telemetry.create () in
  with_global t (fun () ->
      ignore (Telemetry.with_span "g" (fun () -> ()));
      Telemetry.add_count ~by:2 "gc";
      Telemetry.set_gauge "gg" 9.0;
      Alcotest.(check int) "span via global" 1 (Telemetry.span_calls t "g");
      Alcotest.(check int) "count via global" 2 (Telemetry.counter_value t "gc"))

let tests =
  [
    Alcotest.test_case "null is no-op" `Quick test_null_is_noop;
    Alcotest.test_case "aggregation" `Quick test_aggregation;
    Alcotest.test_case "span on exception" `Quick test_span_records_on_exception;
    Alcotest.test_case "ndjson stream" `Quick test_ndjson_stream;
    Alcotest.test_case "ndjson escaping" `Quick test_ndjson_escaping;
    Alcotest.test_case "counts aggregate until flush" `Quick
      test_counts_aggregate_until_flush;
    Alcotest.test_case "cost split" `Quick test_cost_split_in_summary;
    Alcotest.test_case "multi-domain counts" `Quick test_multidomain_counts;
    Alcotest.test_case "global default disabled" `Quick
      test_global_default_disabled;
    Alcotest.test_case "set global" `Quick test_set_global;
  ]
