(* Tests for the telemetry layer: no-op semantics of the disabled
   instance, aggregation, the ndjson event stream, thread-safety across
   domains, and the global-instance plumbing the tuning stack uses. *)

exception Probe

(* substring search without the [Str] dependency *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_null_is_noop () =
  let t = Telemetry.null in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  (* operations neither fail nor record anything *)
  Alcotest.(check int) "span passes value through" 41
    (Telemetry.span t "x" (fun () -> 41));
  Telemetry.count t "c";
  Telemetry.gauge t "g" 3.0;
  Alcotest.(check int) "no counter" 0 (Telemetry.counter_value t "c");
  Alcotest.(check int) "no span" 0 (Telemetry.span_calls t "x");
  Alcotest.(check bool) "summary says disabled" true
    (String.length (Telemetry.summary t) > 0);
  (* exceptions still propagate through a disabled span *)
  Alcotest.check_raises "raise through null span" Probe (fun () ->
      Telemetry.span t "x" (fun () -> raise Probe))

let test_aggregation () =
  let t = Telemetry.create () in
  Alcotest.(check bool) "enabled" true (Telemetry.enabled t);
  ignore (Telemetry.span t "work" (fun () -> 1));
  ignore (Telemetry.span t "work" (fun () -> 2));
  Telemetry.count t "events";
  Telemetry.count t ~by:4 "events";
  Telemetry.gauge t "depth" 2.0;
  Telemetry.gauge t "depth" 7.0;
  Telemetry.gauge t "depth" 3.0;
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
  Alcotest.check_raises "re-raised" Probe (fun () ->
      Telemetry.span t "failing" (fun () -> raise Probe));
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

let test_ndjson_stream () =
  let buf = Buffer.create 256 in
  let t = Telemetry.create ~sink:(Telemetry.Buffer buf) () in
  ignore (Telemetry.span t ~attrs:[ ("k", "v") ] "alpha" (fun () -> ()));
  Telemetry.count t "beta";
  Telemetry.gauge t "gamma" 1.5;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "three events" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a json object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check (list (option string)))
    "event names in order"
    [ Some "alpha"; Some "beta"; Some "gamma" ]
    (List.map (fun l -> json_field l "name") lines);
  (* the span line carries its attribute *)
  Alcotest.(check (option string)) "span attr" (Some "v")
    (json_field (List.hd lines) "k")

let test_ndjson_escaping () =
  let buf = Buffer.create 64 in
  let t = Telemetry.create ~sink:(Telemetry.Buffer buf) () in
  Telemetry.count t "quote\"back\\slash";
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check bool) "escaped quote" true
    (contains line "quote\\\"back\\\\slash")

let test_cost_split_in_summary () =
  let t = Telemetry.create () in
  ignore (Telemetry.span t "tuner.compile" (fun () -> ()));
  ignore (Telemetry.span t "tuner.ncd" (fun () -> ()));
  ignore (Telemetry.span t "tuner.binhunt" (fun () -> ()));
  ignore (Telemetry.span t "tuner.check" (fun () -> ()));
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
      Telemetry.count t "hits";
      ignore (Telemetry.span t "tick" (fun () -> ()))
    done
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost counts" (domains * per_domain)
    (Telemetry.counter_value t "hits");
  Alcotest.(check int) "no lost spans" (domains * per_domain)
    (Telemetry.span_calls t "tick")

let test_global_default_disabled () =
  (* the tuning stack runs against the global instance; out of the box it
     must be the disabled null instance *)
  Alcotest.(check bool) "global starts disabled" false
    (Telemetry.enabled (Telemetry.global ()));
  ignore (Telemetry.with_span "x" (fun () -> ()));
  Telemetry.add_count "x";
  Telemetry.set_gauge "x" 1.0;
  Alcotest.(check int) "still nothing recorded" 0
    (Telemetry.counter_value (Telemetry.global ()) "x")

let test_set_global () =
  let t = Telemetry.create () in
  Telemetry.set_global t;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_global Telemetry.null)
    (fun () ->
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
    Alcotest.test_case "cost split" `Quick test_cost_split_in_summary;
    Alcotest.test_case "multi-domain counts" `Quick test_multidomain_counts;
    Alcotest.test_case "global default disabled" `Quick
      test_global_default_disabled;
    Alcotest.test_case "set global" `Quick test_set_global;
  ]
