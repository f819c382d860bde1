(* Per-layer metrics, measured from outside the server:

   - [scraped]: deltas of the server's own /metrics counters and
     summaries across each phase of the child-process runs, summed
     over the rounds;
   - [traced]: an in-process Runtime.Server + Net.Server with span
     recording on, driven by the same closed loop, every request
     carrying a trace context — per-stage self times and runtime stats;
   - [alone]: each layer called directly on one thread with the
     workload's own request stream, no server around it. *)

module Wire = C4_net.Wire
module Span = C4_obs.Span
module Runtime = C4_runtime.Server

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---------------- scraped from /metrics ---------------- *)

(* Counter and summary deltas over a phase, summed across servers. *)
type delta = (string, float) Hashtbl.t

let add_delta (acc : delta) ~before ~after =
  let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
  Hashtbl.iter
    (fun name v -> Hashtbl.replace acc name (get acc name +. v -. get before name))
    after

(* [client_mean_ns]: the mean latency the driver saw over the same
   phases. *)
let scraped ~phase ~(delta : delta) ~client_mean_ns =
  let d name = Option.value ~default:0.0 (Hashtbl.find_opt delta name) in
  let p s = phase ^ "." ^ s in
  let gets = d "net_get_ns_count" and sets = d "net_set_ns_count" in
  let writes = sets +. d "net_delete_ns_count" in
  let server_sum = d "net_get_ns_sum" +. d "net_set_ns_sum" +. d "net_delete_ns_sum" in
  [
    m (p "net.server_get_mean_us") "us" (ratio (d "net_get_ns_sum") gets /. 1e3);
    m (p "net.server_set_mean_us") "us" (ratio (d "net_set_ns_sum") sets /. 1e3);
    m (p "net.outside_us") "us" ((client_mean_ns -. ratio server_sum (gets +. writes)) /. 1e3);
    m (p "net.bytes_per_op") "B/op"
      (ratio (d "net_bytes_in" +. d "net_bytes_out") (d "net_requests"));
    m (p "net.slow_client_drops") "count" (d "net_slow_client_drops");
    m (p "net.protocol_errors") "count" (d "net_protocol_errors");
    m (p "crew.pins_per_write") "ratio" (ratio (d "crew_pin") writes);
    m (p "crew.windows_per_kwrite") "1/kwrite" (1e3 *. ratio (d "crew_window_open") writes);
    m (p "compaction.absorbed_frac") "ratio" (ratio (d "compaction_absorbed") writes);
    m (p "compaction.window_size_mean") "writes"
      (ratio (d "compaction_window_size_sum") (d "compaction_window_size_count"));
    m (p "ewt.hit_frac") "ratio" (ratio (d "ewt_hit") (d "ewt_hit" +. d "ewt_miss"));
    m (p "wal.appends_per_write") "ratio" (ratio (d "wal_appends") writes);
    m (p "wal.bytes_per_user_byte") "ratio"
      (ratio (d "wal_bytes") (sets *. float_of_int Workload.value_len));
    m (p "wal.fsyncs_per_kwrite") "1/kwrite" (1e3 *. ratio (d "wal_fsyncs") writes);
    m (p "wal.group_size_mean") "requests"
      (ratio (d "wal_group_size_sum") (d "wal_group_size_count"));
  ]

(* ---------------- traced in-process run ---------------- *)

(* A traced request's stage self times, ns. The server's three spans
   form a chain (recv -> apply -> respond, each the parent of the
   next); a span's self time is its duration minus the part its child
   covers, and [wire] is the client span minus the time the server
   spans cover. [gap] is server-chain time in no span: between closing
   recv and opening apply the loop domain takes the span buffer's lock,
   and when it waits there the time belongs to no stage. [overshoot]
   is how far the respond span ran past the client span: the server
   stamps it after write(2) returns, and under load the client can read
   the answer before that thread gets back to its clock, so server
   spans are clipped to the client span. *)
type stages = {
  recv : float;
  apply : float;
  respond : float;
  wire : float;
  client : float;
  gap : float;
  overshoot : float;
}

(* A request's stages add up to its client span within this bound when
   its [gap] is no larger. Both ends stamp spans with the wall clock,
   whose float ns keep about a quarter microsecond. *)
let tolerance_ns = 2_000.0

let interval s = (Span.t0 s, Option.value ~default:(Span.t0 s) (Span.t1 s))
let len (a, b) = b -. a
let overlap (a0, a1) (b0, b1) = Float.max 0.0 (Float.min a1 b1 -. Float.max a0 b0)

let union_len ivs =
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some iv -> acc +. len iv)
    | (a, b) :: tl -> (
      match cur with
      | Some (c0, c1) when a <= c1 -> go acc (Some (c0, Float.max b c1)) tl
      | Some iv -> go (acc +. len iv) (Some (a, b)) tl
      | None -> go acc (Some (a, b)) tl)
  in
  go 0.0 None (List.sort compare ivs)

(* [Ok stages], or [Error why] when the spans are malformed: missing,
   unfinished, or counting the same time twice. *)
let stages_of ~client ~recv ~apply ~respond =
  let c0, c1 = interval client in
  let clip s =
    let a, b = interval s in
    let a = Float.min (Float.max a c0) c1 in
    (a, Float.max a (Float.min b c1))
  in
  let r = clip recv and a = clip apply and s = clip respond in
  let covered = union_len [ r; a; s ] in
  let st =
    {
      recv = len r -. overlap r a;
      apply = len a -. overlap a s;
      respond = len s;
      wire = c1 -. c0 -. covered;
      client = c1 -. c0;
      gap = snd s -. fst r -. covered;
      overshoot = Float.max 0.0 (snd (interval respond) -. c1);
    }
  in
  let counted = st.recv +. st.apply +. st.respond in
  if not (List.for_all Span.finished [ client; recv; apply; respond ]) then
    Error "unfinished span"
  else if Float.abs (counted -. covered) > tolerance_ns then
    Error (Printf.sprintf "server self times %.0f ns cover %.0f ns" counted covered)
  else Ok st

(* Join each client span to its server chain by trace id. *)
let join ~server ~(tracer : Driver.tracer) =
  let chains = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let tid = Span.trace_id s in
      let recv, apply, respond =
        Option.value ~default:(None, None, None) (Hashtbl.find_opt chains tid)
      in
      Hashtbl.replace chains tid
        (match Span.name s with
        | "server.recv" -> (Some s, apply, respond)
        | "server.apply" -> (recv, Some s, respond)
        | "server.respond" -> (recv, apply, Some s)
        | _ -> (recv, apply, respond)))
    (Span.spans server);
  List.map
    (fun (client, op) ->
      match Hashtbl.find_opt chains (Span.trace_id client) with
      | Some (Some recv, Some apply, Some respond) ->
        (op, stages_of ~client ~recv ~apply ~respond)
      | _ -> (op, Error "server spans missing"))
    tracer.Driver.finished

type runtime_delta = {
  reads : int;
  writes : int;
  retries : int;
  batched : int;
  per_worker : int array;
}

let runtime_delta (a : Runtime.stats) (b : Runtime.stats) =
  let writes = b.Runtime.writes - a.Runtime.writes in
  {
    writes;
    reads = b.Runtime.ops_completed - a.Runtime.ops_completed - writes;
    retries = b.Runtime.read_retries - a.Runtime.read_retries;
    batched = b.Runtime.batched_writes - a.Runtime.batched_writes;
    per_worker = Array.mapi (fun i x -> x - a.Runtime.per_worker_ops.(i)) b.Runtime.per_worker_ops;
  }

let runtime_metrics ~phase d =
  let per = Array.map float_of_int d.per_worker in
  let mean = Stats.mean per in
  let p s = phase ^ ".runtime." ^ s in
  [
    m (p "read_retries_per_kread") "1/kread"
      (1e3 *. ratio (float_of_int d.retries) (float_of_int d.reads));
    m (p "batched_frac") "ratio" (ratio (float_of_int d.batched) (float_of_int d.writes));
    m (p "worker_imbalance") "x" (ratio (Array.fold_left Float.max 0.0 per) mean);
  ]

let stage_metrics ~phase joined =
  let ok = List.filter_map (function op, Ok st -> Some (op, st) | _, Error _ -> None) joined in
  let p50 op f =
    ok
    |> List.filter_map (fun (o, st) -> if o = op then Some (f st) else None)
    |> Array.of_list |> Stats.median
  in
  List.concat_map
    (fun (op, op_name) ->
      List.map
        (fun (stage, f) ->
          m (Printf.sprintf "%s.trace.%s.%s_us" phase op_name stage) "us" (p50 op f /. 1e3))
        [
          ("recv", fun st -> st.recv);
          ("apply", fun st -> st.apply);
          ("respond", fun st -> st.respond);
          ("wire", fun st -> st.wire);
        ])
    [ (Workload.Get, "get"); (Workload.Set, "set") ]

(* How well the traced requests' stages account for their client spans. *)
type span_check = {
  checked : int;
  malformed : string list;
  within : int;  (** requests whose gap is within [tolerance_ns] *)
  unaccounted : float;  (** total gap over total client time *)
  overshoot_p99_us : float;
}

let span_check joined =
  let ok = List.filter_map (function _, Ok st -> Some st | _, Error _ -> None) joined in
  let total f = List.fold_left (fun acc st -> acc +. f st) 0.0 ok in
  {
    checked = List.length joined;
    malformed = List.filter_map (function _, Error e -> Some e | _, Ok _ -> None) joined;
    within = List.length (List.filter (fun st -> st.gap <= tolerance_ns) ok);
    unaccounted = ratio (total (fun st -> st.gap)) (total (fun st -> st.client));
    overshoot_p99_us =
      Stats.quantile (Array.of_list (List.map (fun st -> st.overshoot) ok)) 0.99 /. 1e3;
  }

let span_check_json c =
  let module Json = C4_obs.Json in
  Json.Obj
    [
      ("checked", Json.Int c.checked);
      ("malformed", Json.Int (List.length c.malformed));
      ("tolerance_ns", Json.Float tolerance_ns);
      ("within_tolerance", Json.Int c.within);
      ("unaccounted_share", Json.Float c.unaccounted);
      ("respond_overshoot_p99_us", Json.Float c.overshoot_p99_us);
    ]

type traced = { metrics : metric list; spans : span_check; failed : int; attempted : int }

let runtime_config ~registry ~wal =
  {
    Runtime.default_config with
    n_workers = 2;
    n_partitions = 64;
    crew = C4_crew.Config.queued;
    registry = Some registry;
    wal;
  }

let wal_config ~dir =
  { (C4_wal.Wal.default_config ~dir ~n_partitions:64) with C4_wal.Wal.fsync = C4_wal.Wal.Window }

let traced_run (spec : Workload.spec) ~seed ~phase_s ~wal_dir =
  let registry = C4_obs.Registry.create ~thread_safe:true () in
  let wal = Option.map (fun dir -> wal_config ~dir) wal_dir in
  let runtime = Runtime.start (runtime_config ~registry ~wal) in
  let server = Span.create ~process:"server" () in
  let srv =
    C4_net.Server.start ~registry
      { C4_net.Server.default_config with spans = Some server }
      ~runtime
  in
  let wire = Wire.create () in
  let checker = Checker.create ~keys:spec.Workload.keys in
  let conns = List.init 2 (fun _ -> Driver.connect wire ~port:(C4_net.Server.port srv)) in
  let st = Workload.stream spec ~seed in
  let source () = Some (Workload.next st) in
  let phase ?tracer ~conns ~depth () =
    Driver.run ?tracer ~wire ~checker ~conns ~depth ~deadline:(Driver.after phase_s) ~source ()
  in
  let pre =
    Driver.run ~wire ~checker ~conns ~depth:256 ~deadline:(Driver.after 120.0)
      ~source:(Driver.preload_source spec.Workload.keys) ()
  in
  let traced_phase ~name ~conns ~depth =
    let tracer = { Driver.buf = Span.create ~process:"client" (); finished = [] } in
    let s0 = Runtime.stats runtime in
    let r = phase ~tracer ~conns ~depth () in
    let d = runtime_delta s0 (Runtime.stats runtime) in
    (r, tracer, runtime_metrics ~phase:name d)
  in
  let idle, idle_tr, idle_rt = traced_phase ~name:"idle" ~conns:[ List.hd conns ] ~depth:1 in
  let plain = phase ~conns ~depth:32 () in
  let loaded, loaded_tr, loaded_rt = traced_phase ~name:"loaded" ~conns ~depth:32 in
  List.iter Driver.close conns;
  C4_net.Server.stop srv;
  Runtime.stop runtime;
  let ops_s (r : Driver.result) =
    let elapsed_s = float_of_int (r.Driver.t_end - r.Driver.t_start) /. 1e9 in
    ratio (float_of_int r.Driver.completed) elapsed_s
  in
  let idle_j = join ~server ~tracer:idle_tr and loaded_j = join ~server ~tracer:loaded_tr in
  let all = [ pre; idle; plain; loaded ] in
  {
    metrics =
      stage_metrics ~phase:"idle" idle_j @ idle_rt
      @ stage_metrics ~phase:"loaded" loaded_j @ loaded_rt
      @ [ m "trace.overhead_frac" "ratio" (1.0 -. ratio (ops_s loaded) (ops_s plain)) ];
    spans = span_check (idle_j @ loaded_j);
    failed = List.fold_left (fun acc (r : Driver.result) -> acc + r.Driver.failed) 0 all;
    attempted = List.fold_left (fun acc (r : Driver.result) -> acc + r.Driver.attempted) 0 all;
  }

(* ---------------- each layer alone ---------------- *)

(* ns per call of [f i], i = 0, 1, 2, ..., over [seconds]. *)
let per_call ~seconds f =
  let t0 = Stats.now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while Stats.now_ns () < stop do
    for _ = 1 to 64 do
      f !n;
      incr n
    done
  done;
  float_of_int (Stats.now_ns () - t0) /. float_of_int !n

let alone (spec : Workload.spec) ~seed ~seconds ~wal_dir =
  let st = Workload.stream spec ~seed in
  let reqs = Array.init 65536 (fun _ -> Workload.next st) in
  let req i = reqs.(i land 65535) in
  let values = Array.init 64 (fun k -> Workload.stamp ~key:k ~wn:1) in
  let value i = values.(i land 63) in
  let wire = Wire.create () in
  let dec = Wire.Decoder.create wire in
  let frame_body b =
    Wire.Decoder.feed dec b ~off:0 ~len:(Bytes.length b);
    match Wire.Decoder.next_frame dec with `Frame body -> body | _ -> failwith "codec"
  in
  let codec i =
    let r = req i in
    let is_get = r.Workload.op = Workload.Get in
    let q =
      {
        Wire.id = i;
        op = Workload.wire_op r.Workload.op;
        key = r.Workload.key;
        token = None;
        trace = None;
        value = (if r.Workload.op = Workload.Set then value i else Bytes.empty);
      }
    in
    ignore (Wire.decode_request wire (frame_body (Wire.encode_request wire q)));
    let resp =
      {
        Wire.resp_id = i;
        status = Wire.Ok;
        timing_ns = 0;
        resp_value = (if is_get then value i else Bytes.empty);
      }
    in
    ignore (Wire.decode_response wire (frame_body (Wire.encode_response wire resp)))
  in
  let codec_ns = per_call ~seconds codec in
  let store =
    C4_kvs.Store.create ~n_buckets:Runtime.default_config.Runtime.n_buckets ~n_partitions:64 ()
  in
  let key i = (req i).Workload.key in
  for k = 0 to spec.Workload.keys - 1 do
    C4_kvs.Store.set store ~key:k ~value:(Workload.stamp ~key:k ~wn:0)
  done;
  let get_ns = per_call ~seconds (fun i -> ignore (C4_kvs.Store.get store ~key:(key i))) in
  let set_ns = per_call ~seconds (fun i -> C4_kvs.Store.set store ~key:(key i) ~value:(value i)) in
  let core = C4_crew.Core.create ~cfg:C4_crew.Config.queued ~n_workers:2 ~n_partitions:64 () in
  let admit_ns =
    per_call ~seconds (fun i ->
        let partition = C4_kvs.Store.partition_of_key store (req i).Workload.key in
        ignore (C4_crew.Core.admit_write core ~partition ~now:(float_of_int i) ~pick:`Static);
        C4_crew.Core.write_done ~strict:false core ~partition)
  in
  let append_ns =
    let wal, _ = C4_wal.Wal.open_ ~replay:(fun ~partition:_ _ -> ()) (wal_config ~dir:wal_dir) in
    let ns =
      per_call ~seconds (fun i ->
          let key = (req i).Workload.key in
          ignore
            (C4_wal.Wal.append wal
               ~partition:(C4_kvs.Store.partition_of_key store key)
               ~op:(C4_wal.Record.Set { key; value = value i; token = None })))
    in
    C4_wal.Wal.close wal;
    ns
  in
  [
    m "wire.codec_ns" "ns" codec_ns;
    m "store.get_ns" "ns" get_ns;
    m "store.set_ns" "ns" set_ns;
    m "crew.admit_ns" "ns" admit_ns;
    m "wal.append_ns" "ns" append_ns;
  ]
