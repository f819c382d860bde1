(* Observability layer: tracer span algebra, sampling, registry
   semantics, Chrome trace-event export (round-tripped through a minimal
   JSON parser), periodic snapshots, and the end-to-end properties the
   subsystem promises — span sums tile latency, disabled tracing
   perturbs nothing, trace output is deterministic. *)

module Trace = C4_obs.Trace
module Registry = C4_obs.Registry
module Chrome = C4_obs.Chrome
module Report = C4_obs.Report
module Snapshot = C4_obs.Snapshot
module Sim = C4_dsim.Sim
module Server = C4_model.Server
module Metrics = C4_model.Metrics

(* ---------------- Registry ---------------- *)

let test_registry_find_or_create () =
  let r = Registry.create () in
  let a = Registry.counter r "x" in
  let b = Registry.counter r "x" in
  Registry.incr a;
  Registry.incr ~by:4 b;
  Alcotest.(check int) "shared handle" 5 (Registry.counter_value a);
  Alcotest.(check (list string)) "registered once" [ "x" ] (Registry.names r)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "m");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Registry.gauge: \"m\" already registered as a counter")
    (fun () -> ignore (Registry.gauge r "m"))

let test_registry_order_and_read () =
  let r = Registry.create () in
  Registry.incr ~by:7 (Registry.counter r "c");
  Registry.set (Registry.gauge r "g") 2.5;
  Registry.observe (Registry.histogram r "h") 10.0;
  Registry.observe (Registry.histogram r "h") 20.0;
  Alcotest.(check (list string)) "registration order" [ "c"; "g"; "h" ]
    (Registry.names r);
  let read name = Option.get (Registry.read r name) in
  Alcotest.(check (float 0.0)) "counter read" 7.0 (read "c");
  Alcotest.(check (float 0.0)) "gauge read" 2.5 (read "g");
  Alcotest.(check (float 0.0)) "histogram read = count" 2.0 (read "h");
  Alcotest.(check bool) "unknown name" true (Registry.read r "nope" = None);
  Alcotest.(check (list string)) "csv header order" [ "c"; "g"; "h" ]
    (Registry.csv_header r);
  Alcotest.(check int) "csv row width" 3 (List.length (Registry.csv_row r))

(* ---------------- Tracer span algebra ---------------- *)

(* Drive the lifecycle calls directly: ids 0..29 with sample=3 must
   yield exactly the ids divisible by 3, and nothing else. *)
let test_sampling_exact () =
  let t = Trace.create ~sample:3 () in
  for id = 0 to 29 do
    let ts = float_of_int (100 * id) in
    Trace.arrival t ~id ~op:"R" ~partition:0 ~ts;
    Trace.service_begin t ~id ~lane:0 ~ts:(ts +. 10.0);
    Trace.service_end t ~id ~lane:0 ~phase:Trace.Service ~ts:(ts +. 50.0);
    Trace.departure t ~id ~lane:0 ~ts:(ts +. 50.0)
  done;
  let ids = List.map (fun (id, _, _) -> id) (Trace.completed t) in
  Alcotest.(check (list int)) "every 3rd request, in order"
    [ 0; 3; 6; 9; 12; 15; 18; 21; 24; 27 ]
    ids;
  Alcotest.(check int) "no one left live" 0 (Trace.live_count t)

let test_span_chain_tiles_latency () =
  let t = Trace.create () in
  (* A compacted write: queue 10, absorb 5, deferral 85 → latency 100. *)
  Trace.arrival t ~id:1 ~op:"W" ~partition:3 ~ts:1000.0;
  Trace.service_begin t ~id:1 ~lane:2 ~ts:1010.0;
  Trace.service_end t ~id:1 ~lane:2 ~phase:Trace.Absorb ~ts:1015.0;
  Trace.departure t ~id:1 ~lane:2 ~ts:1100.0;
  match Report.breakdowns t with
  | [ b ] ->
    Alcotest.(check (float 1e-9)) "queue" 10.0 b.Report.queue;
    Alcotest.(check (float 1e-9)) "service (absorb)" 5.0 b.Report.service;
    Alcotest.(check (float 1e-9)) "deferral" 85.0 b.Report.deferral;
    Alcotest.(check (float 1e-9)) "latency" 100.0 b.Report.latency;
    Alcotest.(check (float 1e-9)) "tiles exactly" b.Report.latency
      (b.Report.queue +. b.Report.service +. b.Report.deferral)
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs)

let test_null_tracer_is_inert () =
  let t = Trace.null in
  Trace.arrival t ~id:0 ~op:"R" ~partition:0 ~ts:0.0;
  Trace.service_begin t ~id:0 ~lane:0 ~ts:1.0;
  Trace.departure t ~id:0 ~lane:0 ~ts:2.0;
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans t));
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t));
  Alcotest.(check int) "no completions" 0 (List.length (Trace.completed t))

let test_custom_sink () =
  let spans = ref 0 and events = ref 0 in
  let t =
    Trace.with_sink
      {
        Trace.on_span = (fun _ -> incr spans);
        on_event = (fun _ -> incr events);
      }
  in
  Trace.arrival t ~id:0 ~op:"R" ~partition:0 ~ts:0.0;
  Trace.service_begin t ~id:0 ~lane:0 ~ts:5.0;
  Trace.service_end t ~id:0 ~lane:0 ~phase:Trace.Service ~ts:9.0;
  Trace.departure t ~id:0 ~lane:0 ~ts:9.0;
  Alcotest.(check int) "queue + service spans" 2 !spans;
  Alcotest.(check int) "arrival + departure events" 2 !events

(* ---------------- Minimal JSON parser (test-local) ---------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
        | None -> fail "dangling escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "eof"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (advance (); Obj [])
    else begin
      let fields = ref [] in
      let rec member () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); member ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or }"
      in
      member ();
      Obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (advance (); Arr [])
    else begin
      let items = ref [] in
      let rec element () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); element ()
        | Some ']' -> advance ()
        | _ -> fail "expected , or ]"
      in
      element ();
      Arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_chrome_round_trip () =
  let t = Trace.create () in
  Trace.arrival t ~id:0 ~op:"W" ~partition:1 ~ts:100.0;
  Trace.service_begin t ~id:0 ~lane:3 ~ts:150.0;
  Trace.service_end t ~id:0 ~lane:3 ~phase:Trace.Service ~ts:400.0;
  Trace.departure t ~id:0 ~lane:3 ~ts:400.0;
  Trace.lane_span t ~lane:3 ~phase:Trace.Flush ~t0:400.0 ~t1:450.0;
  let doc = parse_json (Chrome.to_string t) in
  (match obj_field "displayTimeUnit" doc with
  | Some (Str "ns") -> ()
  | _ -> Alcotest.fail "displayTimeUnit must be \"ns\"");
  let events =
    match obj_field "traceEvents" doc with
    | Some (Arr es) -> es
    | _ -> Alcotest.fail "traceEvents must be an array"
  in
  let ph e = match obj_field "ph" e with Some (Str p) -> p | _ -> "?" in
  List.iter
    (fun e ->
      match ph e with
      | "X" ->
        (* complete events need name/ts/dur and a non-negative duration *)
        (match (obj_field "dur" e, obj_field "ts" e, obj_field "name" e) with
        | Some (Num d), Some (Num _), Some (Str _) ->
          if d < 0.0 then Alcotest.fail "negative span duration"
        | _ -> Alcotest.fail "X event missing name/ts/dur")
      | "i" | "M" -> ()
      | p -> Alcotest.failf "unexpected phase %s" p)
    events;
  let count p = List.length (List.filter (fun e -> ph e = p) events) in
  (* lanes present: NIC (arrival) + worker 3 → 2 thread_name records *)
  Alcotest.(check int) "thread metadata per lane" 2 (count "M");
  Alcotest.(check int) "arrival + departure instants" 2 (count "i");
  (* queue span + service span + flush lane span *)
  Alcotest.(check int) "complete spans" 3 (count "X");
  (* span timestamps are microseconds: the queue span starts at 0.1 µs *)
  let x_ts =
    List.filter_map
      (fun e ->
        if ph e = "X" then
          match obj_field "ts" e with Some (Num v) -> Some v | _ -> None
        else None)
      events
  in
  Alcotest.(check (float 1e-9)) "µs timestamps" 0.1
    (List.fold_left Float.min infinity x_ts)

(* ---------------- Snapshot ---------------- *)

let test_snapshot_rows () =
  let sim = Sim.create () in
  let registry = Registry.create () in
  let c = Registry.counter registry "ticks" in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~after:(float_of_int (i * 100)) (fun _ -> Registry.incr c))
  done;
  let polled = ref 0 in
  let snap =
    Snapshot.start
      ~pre:(fun () -> incr polled)
      ~sim ~registry ~interval_ns:250.0 ()
  in
  Sim.run sim;
  (* events at 100..1000, samples at 250/500/750/1000; the tick sees the
     drained queue at 1000 and stops rescheduling itself *)
  Alcotest.(check int) "four rows" 4 (Snapshot.rows snap);
  Alcotest.(check int) "pre hook per row" 4 !polled;
  let lines = String.split_on_char '\n' (C4_stats.Csv.to_string (Snapshot.csv snap)) in
  Alcotest.(check string) "header" "t_ns,ticks" (List.nth lines 0);
  Alcotest.(check string) "first sample: 2 events by t=250" "250.0,2" (List.nth lines 1);
  Alcotest.(check string) "last sample: all 10 by t=1000" "1000.0,10" (List.nth lines 4)

(* ---------------- Whole-system properties ---------------- *)

let traced_run ?(trace = Trace.null) ?n_requests:(n = 4_000) () =
  let cfg = { (C4.Config.model C4.Config.Comp) with Server.trace } in
  let workload =
    {
      (C4.Config.workload_rw_sk ~theta:1.25 ~write_fraction:0.05) with
      C4_workload.Generator.rate = 0.06;
    }
  in
  Server.run cfg ~workload ~n_requests:n

let test_span_sum_equals_latency () =
  let trace = Trace.create () in
  let _r = traced_run ~trace () in
  let completed = List.length (Trace.completed trace) in
  Alcotest.(check bool) "requests completed" true (completed > 0);
  Alcotest.(check int) "no span-sum violations" 0
    (List.length (Report.violations trace ~tolerance_ns:1.0))

let test_disabled_tracer_no_perturbation () =
  let plain = traced_run () in
  let traced = Trace.create () in
  let r = traced_run ~trace:traced () in
  let summary m =
    ( Metrics.completed m,
      Metrics.throughput_mrps m,
      Metrics.p99 m,
      Metrics.mean_latency m,
      Metrics.drops m )
  in
  Alcotest.(check bool) "identical metrics with and without tracing" true
    (summary plain.Server.metrics = summary r.Server.metrics)

let test_trace_deterministic () =
  (* Same config, two runs: Sim breaks ties by scheduling order, so the
     span and event streams must be bit-identical. *)
  let t1 = Trace.create () and t2 = Trace.create () in
  let _ = traced_run ~trace:t1 ~n_requests:2_000 () in
  let _ = traced_run ~trace:t2 ~n_requests:2_000 () in
  Alcotest.(check bool) "same spans" true (Trace.spans t1 = Trace.spans t2);
  Alcotest.(check bool) "same events" true (Trace.events t1 = Trace.events t2);
  Alcotest.(check bool) "same completions" true
    (Trace.completed t1 = Trace.completed t2)

let test_sampled_run_subset () =
  (* A sampled tracer sees exactly the 1-in-5 id subset of the full
     tracer's completions. *)
  let full = Trace.create () and sampled = Trace.create ~sample:5 () in
  let _ = traced_run ~trace:full ~n_requests:2_000 () in
  let _ = traced_run ~trace:sampled ~n_requests:2_000 () in
  let ids t = List.map (fun (id, _, _) -> id) (Trace.completed t) in
  let expected = List.filter (fun id -> id mod 5 = 0) (ids full) in
  Alcotest.(check (list int)) "every 5th of the full stream" expected (ids sampled)

(* ---------------- JSON emitter and escaping ---------------- *)

module Json = C4_obs.Json
module Span = C4_obs.Span
module Prometheus = C4_obs.Prometheus
module Telemetry = C4_obs.Telemetry

let test_json_escaping () =
  Alcotest.(check string) "quote" {|a\"b|} (Json.escape "a\"b");
  Alcotest.(check string) "backslash" {|a\\b|} (Json.escape "a\\b");
  Alcotest.(check string) "newline" {|a\nb|} (Json.escape "a\nb");
  Alcotest.(check string) "tab and cr as \\u escapes" "\\u0009\\u000d"
    (Json.escape "\t\r");
  Alcotest.(check string) "control byte" "\\u0001" (Json.escape "\x01");
  Alcotest.(check string) "plain text untouched" "hello w0rld"
    (Json.escape "hello w0rld");
  (* A document full of hostile strings must still parse, and the
     parser-visible escapes must invert back to the original bytes. *)
  let doc =
    Json.Obj
      [
        ("q\"k", Json.Str "v\"1");
        ("b\\k", Json.Str "v\\2");
        ("n\nk", Json.Str "v\n3");
        ("nan", Json.Float Float.nan);
        ("inf", Json.Float Float.infinity);
        ("list", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]);
      ]
  in
  let parsed = parse_json (Json.to_string doc) in
  Alcotest.(check bool) "escaped quote key round-trips" true
    (obj_field "q\"k" parsed = Some (Str "v\"1"));
  Alcotest.(check bool) "escaped backslash round-trips" true
    (obj_field "b\\k" parsed = Some (Str "v\\2"));
  Alcotest.(check bool) "escaped newline round-trips" true
    (obj_field "n\nk" parsed = Some (Str "v\n3"));
  Alcotest.(check bool) "NaN serialises as null" true
    (obj_field "nan" parsed = Some Null);
  Alcotest.(check bool) "infinity serialises as null" true
    (obj_field "inf" parsed = Some Null)

(* Chrome exports route every string through the same escaper: a trace
   whose op names carry quotes/backslashes/newlines must still be
   valid JSON. *)
let test_chrome_escaping () =
  let t = Trace.create () in
  Trace.arrival t ~id:0 ~op:"W\"eird\\op\nname" ~partition:0 ~ts:10.0;
  Trace.service_begin t ~id:0 ~lane:0 ~ts:20.0;
  Trace.service_end t ~id:0 ~lane:0 ~phase:Trace.Service ~ts:30.0;
  Trace.departure t ~id:0 ~lane:0 ~ts:30.0;
  match parse_json (Chrome.to_string t) with
  | exception Parse_error e -> Alcotest.failf "chrome export unparseable: %s" e
  | doc -> (
    match obj_field "traceEvents" doc with
    | Some (Arr (_ :: _)) -> ()
    | _ -> Alcotest.fail "traceEvents missing")

(* ---------------- Request spans ---------------- *)

let test_span_links_and_ambient () =
  let buf = Span.create ~process:"test" () in
  let root = Span.start buf ~name:"root" ~ts:100.0 in
  let child = Span.start ~parent:(Span.context root) buf ~name:"child" ~ts:110.0 in
  Alcotest.(check bool) "root has no parent" true (Span.parent_id root = None);
  Alcotest.(check (option int)) "child links to root"
    (Some (Span.span_id root)) (Span.parent_id child);
  Alcotest.(check int) "one trace" (Span.trace_id root) (Span.trace_id child);
  Alcotest.(check bool) "distinct span ids" true
    (Span.span_id root <> Span.span_id child);
  (* A fresh root starts a fresh trace. *)
  let other = Span.start buf ~name:"other" ~ts:120.0 in
  Alcotest.(check bool) "separate roots, separate traces" true
    (Span.trace_id other <> Span.trace_id root);
  (* Ambient current span: annotate_current hits the innermost active
     span on this thread, and nothing once the scope unwinds. *)
  Alcotest.(check bool) "no current span outside a scope" false
    (Span.annotate_current buf ~key:"k" ~value:"v");
  Span.with_current buf root (fun () ->
      Alcotest.(check bool) "outer current" true
        (Span.annotate_current buf ~key:"outer" ~value:"1");
      Span.with_current buf child (fun () ->
          Alcotest.(check bool) "inner current" true
            (Span.annotate_current buf ~key:"inner" ~value:"2"));
      Alcotest.(check bool) "outer restored after nesting" true
        (Span.annotate_current buf ~key:"outer2" ~value:"3"));
  Alcotest.(check bool) "scope unwound" false
    (Span.annotate_current buf ~key:"k" ~value:"v");
  Alcotest.(check (list (pair string string))) "annotations in order"
    [ ("outer", "1"); ("outer2", "3") ]
    (Span.annotations root);
  Alcotest.(check (list (pair string string))) "child annotation"
    [ ("inner", "2") ]
    (Span.annotations child);
  (* finish clamps and records. *)
  Span.finish buf child ~ts:105.0;
  Alcotest.(check (option (float 0.0))) "finish clamped to start" (Some 110.0)
    (Span.t1 child);
  Span.finish buf root ~ts:140.0;
  (* The Chrome export parses and carries the identity args. *)
  let doc = parse_json (Span.to_chrome buf) in
  let events =
    match obj_field "traceEvents" doc with
    | Some (Arr es) -> es
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let x_events =
    List.filter (fun e -> obj_field "ph" e = Some (Str "X")) events
  in
  Alcotest.(check int) "three complete spans exported" 3 (List.length x_events);
  List.iter
    (fun e ->
      let args = obj_field "args" e in
      match args with
      | Some (Obj fields) ->
        Alcotest.(check bool) "span_id arg present" true
          (List.mem_assoc "span_id" fields);
        Alcotest.(check bool) "trace_id arg present" true
          (List.mem_assoc "trace_id" fields)
      | _ -> Alcotest.fail "X event without args")
    x_events

(* ---------------- Consistent snapshots under writers ---------------- *)

(* Satellite: a scrape while domains record must never observe a torn
   histogram (count bumped, sum not). Every observation is 10.0, so any
   consistent reading has mean exactly 10.0. *)
let test_snapshot_not_torn_under_writers () =
  let r = Registry.create ~thread_safe:true () in
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            (* Each domain re-resolves its handle: same underlying metric. *)
            let h = Registry.histogram r "obs.stress_ns" in
            let c = Registry.counter r "obs.stress_ops" in
            let n = ref 0 in
            while not (Atomic.get stop) do
              Registry.observe h 10.0;
              Registry.incr c;
              incr n
            done;
            ignore d;
            !n))
  in
  let torn = ref 0 and scrapes = ref 0 in
  let deadline = Unix.gettimeofday () +. 0.5 in
  while Unix.gettimeofday () < deadline do
    (match List.assoc_opt "obs.stress_ns" (Registry.snapshot r) with
    | Some (Registry.Histogram_reading h) ->
      incr scrapes;
      let count = C4_stats.Histogram.count h in
      if count > 0 && C4_stats.Histogram.mean h <> 10.0 then incr torn
    | Some _ | None -> ())
  done;
  Atomic.set stop true;
  let written = List.fold_left (fun acc d -> acc + Domain.join d) 0 writers in
  Alcotest.(check bool) "writers made progress" true (written > 0);
  Alcotest.(check bool) "scrapes happened" true (!scrapes > 0);
  Alcotest.(check int) "no torn count/sum readings" 0 !torn;
  (* The final quiesced snapshot agrees with the writers exactly. *)
  match Registry.snapshot r with
  | snap -> (
    match
      (List.assoc "obs.stress_ns" snap, List.assoc "obs.stress_ops" snap)
    with
    | Registry.Histogram_reading h, Registry.Counter_reading ops ->
      Alcotest.(check int) "histogram saw every observation" written
        (C4_stats.Histogram.count h);
      Alcotest.(check int) "counter saw every increment" written ops
    | _ -> Alcotest.fail "unexpected reading kinds")

(* A thread-safe registry shards by domain id, and runtime recovery
   respawns domains, so ids grow past the shard count and wrap onto
   shards earlier domains used. More sequential domains than the
   registry can have shards, plus two threads racing on one domain
   (same shard, same lock), must still add up exactly: domain [i]
   records [i] increments and [i] observations of [10 i]. *)
let test_shard_merge_under_domain_churn () =
  let r = Registry.create ~thread_safe:true () in
  let c = Registry.counter r "churn.ops" and h = Registry.histogram r "churn.lat_ns" in
  let record i =
    for _ = 1 to i do
      Registry.incr c;
      Registry.observe h (float_of_int (10 * i))
    done
  in
  let domains = 70 (* more than any registry's shard count *) in
  for i = 1 to domains do
    Domain.join (Domain.spawn (fun () -> record i))
  done;
  let per_thread = 5_000 in
  Domain.join
    (Domain.spawn (fun () ->
         let racer () =
           for _ = 1 to per_thread do
             Registry.incr ~by:2 c;
             Registry.observe h 7.0
           done
         in
         List.iter Thread.join [ Thread.create racer (); Thread.create racer () ]));
  let ops = (domains * (domains + 1) / 2) + (2 * 2 * per_thread) in
  let count = (domains * (domains + 1) / 2) + (2 * per_thread) in
  let sum =
    List.fold_left ( + ) (2 * per_thread * 7) (List.init domains (fun i -> 10 * (i + 1) * (i + 1)))
  in
  Alcotest.(check int) "counter total" ops (Registry.counter_value c);
  let merged = Registry.histogram_values h in
  Alcotest.(check int) "histogram count" count (C4_stats.Histogram.count merged);
  Alcotest.(check (float 0.0)) "histogram sum" (float_of_int sum)
    (C4_stats.Histogram.sum merged);
  Alcotest.(check (option (float 0.0))) "read" (Some (float_of_int ops))
    (Registry.read r "churn.ops");
  let lines = String.split_on_char '\n' (Prometheus.of_registry r) in
  List.iter
    (fun l -> Alcotest.(check bool) l true (List.mem l lines))
    [
      Printf.sprintf "churn_ops %d" ops;
      Printf.sprintf "churn_lat_ns_count %d" count;
      Printf.sprintf "churn_lat_ns_sum %d" sum;
    ]

(* ---------------- Prometheus exposition ---------------- *)

let test_prometheus_exposition () =
  Alcotest.(check string) "dots sanitised" "net_requests"
    (Prometheus.metric_name "net.requests");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Prometheus.metric_name "9lives");
  let r = Registry.create () in
  Registry.incr ~by:3 (Registry.counter r "crew.pins");
  Registry.set (Registry.gauge r "net.shed_level") 1.0;
  let h = Registry.histogram r "net.get_ns" in
  List.iter (Registry.observe h) [ 100.0; 200.0; 300.0 ];
  let text = Prometheus.of_registry r in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE crew_pins counter");
  Alcotest.(check bool) "counter sample" true (has "crew_pins 3");
  Alcotest.(check bool) "gauge sample" true (has "net_shed_level 1");
  Alcotest.(check bool) "histogram exposed as summary" true
    (has "# TYPE net_get_ns summary");
  Alcotest.(check bool) "summary count" true (has "net_get_ns_count 3");
  Alcotest.(check bool) "p50 quantile line present" true
    (List.exists
       (fun l -> String.length l > 0 && String.index_opt l '{' <> None
                 && l.[0] = 'n'
                 && String.sub l 0 (String.index l '{') = "net_get_ns")
       lines);
  Alcotest.(check bool) "ends with newline" true
    (text <> "" && text.[String.length text - 1] = '\n')

(* ---------------- Telemetry endpoint ---------------- *)

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      match String.index_opt raw '\r' with
      | None -> Alcotest.failf "no status line in %S" raw
      | Some eol ->
        let status = String.sub raw 0 eol in
        let body =
          (* Body starts after the first blank line. *)
          let rec find i =
            if i + 3 >= String.length raw then Alcotest.fail "no header end"
            else if String.sub raw i 4 = "\r\n\r\n" then
              String.sub raw (i + 4) (String.length raw - i - 4)
            else find (i + 1)
          in
          find 0
        in
        (status, body))

(* Scrape the live endpoint while writer domains hammer the registry:
   every response must be well-formed, and /healthz must carry the
   host-supplied document. *)
let test_telemetry_endpoint_under_load () =
  let r = Registry.create ~thread_safe:true () in
  let tel =
    Telemetry.start ~port:0 ~registry:r
      ~health:(fun () ->
        Json.Obj
          [ ("status", Json.Str "ok"); ("shed_level", Json.Int 0) ])
      ()
  in
  let port = Telemetry.port tel in
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let h = Registry.histogram r "tel.lat_ns" in
            let c = Registry.counter r "tel.ops" in
            while not (Atomic.get stop) do
              Registry.observe h 10.0;
              Registry.incr c
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join writers;
      Telemetry.stop tel)
    (fun () ->
      for _ = 1 to 20 do
        let status, body = http_get ~port "/metrics" in
        Alcotest.(check string) "metrics 200" "HTTP/1.0 200 OK" status;
        Alcotest.(check bool) "exposition has TYPE lines" true
          (List.exists
             (fun l ->
               String.length l > 7 && String.sub l 0 7 = "# TYPE ")
             (String.split_on_char '\n' body));
        let status, body = http_get ~port "/healthz" in
        Alcotest.(check string) "healthz 200" "HTTP/1.0 200 OK" status;
        match parse_json body with
        | exception Parse_error e -> Alcotest.failf "healthz not JSON: %s" e
        | doc ->
          Alcotest.(check bool) "health document served" true
            (obj_field "status" doc = Some (Str "ok"))
      done;
      let status, _ = http_get ~port "/nope" in
      Alcotest.(check string) "unknown path is 404" "HTTP/1.0 404 Not Found"
        status)

let tests =
  [
    Alcotest.test_case "registry find-or-create shares handles" `Quick
      test_registry_find_or_create;
    Alcotest.test_case "registry rejects kind mismatch" `Quick
      test_registry_kind_mismatch;
    Alcotest.test_case "registry order and reads" `Quick test_registry_order_and_read;
    Alcotest.test_case "sampling keeps exactly every nth id" `Quick
      test_sampling_exact;
    Alcotest.test_case "span chain tiles latency" `Quick test_span_chain_tiles_latency;
    Alcotest.test_case "null tracer is inert" `Quick test_null_tracer_is_inert;
    Alcotest.test_case "custom sink receives spans and events" `Quick
      test_custom_sink;
    Alcotest.test_case "chrome JSON round-trips through a parser" `Quick
      test_chrome_round_trip;
    Alcotest.test_case "snapshot samples on the sim clock" `Quick test_snapshot_rows;
    Alcotest.test_case "span sums equal end-to-end latency" `Quick
      test_span_sum_equals_latency;
    Alcotest.test_case "disabled tracer perturbs nothing" `Quick
      test_disabled_tracer_no_perturbation;
    Alcotest.test_case "trace output is deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "sampled run traces the id subset" `Quick
      test_sampled_run_subset;
    Alcotest.test_case "JSON string escaping" `Quick test_json_escaping;
    Alcotest.test_case "chrome escapes hostile names" `Quick test_chrome_escaping;
    Alcotest.test_case "request spans: links, ambient, export" `Quick
      test_span_links_and_ambient;
    Alcotest.test_case "snapshots are not torn under writers" `Quick
      test_snapshot_not_torn_under_writers;
    Alcotest.test_case "shards merge exactly under domain churn" `Quick
      test_shard_merge_under_domain_churn;
    Alcotest.test_case "prometheus exposition format" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "telemetry endpoint under load" `Quick
      test_telemetry_endpoint_under_load;
  ]
