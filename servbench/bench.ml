(* One benchmark run: [rounds] times, start [c4_sim serve] as a child,
   preload the workload's key space, measure two closed-loop phases —
   [idle] (1 connection, 1 outstanding) and [loaded] (2 connections x
   32 outstanding) — and check every answer and a quiescent read-back
   of the hot keys. The end-to-end metrics pool the rounds; a traced
   run adds the in-process traced run and the layer-alone timings for
   the per-layer metrics. See README.md. *)

module Json = C4_obs.Json
module Wire = C4_net.Wire

type metric = Layers.metric = { name : string; value : float; unit : string }

let m = Layers.m

(* ---------------- work directory ---------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------------- host facts ---------------- *)

let fd_limit () =
  try
    Child.read_all "/proc/self/limits"
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           if String.length line > 14 && String.sub line 0 14 = "Max open files" then
             Scanf.sscanf (String.sub line 14 (String.length line - 14)) " %s" Option.some
           else None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

let git_rev () =
  let read p = String.trim (Child.read_all p) in
  try
    let head = read ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "none (not a git checkout)"

(* Lateness of a loop that only sleeps 1 ms at a time, for one second:
   how far the host's timers are from punctual. *)
let pacing_probe () =
  let late = Stats.samples () in
  let stop = Driver.after 1.0 in
  while Stats.now_ns () < stop do
    let due = Stats.now_ns () + 1_000_000 in
    Unix.sleepf 0.001;
    Stats.add late (float_of_int (Stats.now_ns () - due) /. 1e3)
  done;
  let a = Stats.to_array late in
  Json.Obj
    [
      ("samples", Json.Int (Array.length a));
      ("lateness_p50_us", Json.Float (Stats.quantile a 0.5));
      ("lateness_p99_us", Json.Float (Stats.quantile a 0.99));
    ]

(* The host's aggregate CPU time split from /proc/stat's "cpu" line:
   (steal, total) in ticks. Steal is time the hypervisor ran something
   else while the VM's vCPUs wanted to run. *)
let cpu_ticks () =
  let first_line = List.hd (String.split_on_char '\n' (Child.read_all "/proc/stat")) in
  match String.split_on_char ' ' first_line with
  | "cpu" :: rest ->
    let f = List.filter_map int_of_string_opt rest in
    let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) f) in
    ((match List.nth_opt f 7 with Some s -> s | None -> 0), total)
  | _ -> (0, 0)
  | exception _ -> (0, 0)

(* ---------------- one run ---------------- *)

type config = {
  spec : Workload.spec;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  work_dir : string;
  rounds : int;
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  record : Json.t;
  spans : Layers.span_check option;
}

let live : Child.t option ref = ref None

(* Latency summary in the record: median, the highest percentile with
   at least ten samples beyond it, and the sample count. *)
let lat_json (s : Stats.samples) =
  let a = Stats.sorted (Stats.to_array s) in
  let n = Array.length a in
  let q = Stats.supported_tail n in
  Json.Obj
    [
      ("n", Json.Int n);
      ("p50_us", Json.Float (Stats.quantile_sorted a 0.5 /. 1e3));
      ("tail_q", Json.Float q);
      ("tail_us", Json.Float (Stats.quantile_sorted a q /. 1e3));
    ]

(* ---------------- windows ---------------- *)

(* Phases are cut into windows of [window_s]. At each boundary the run
   reads the host's steal ticks and the server's CPU time; a window in
   which the hypervisor stole more than [steal_limit] of the VM's CPU
   time measured the host, not the server, and is left out of the
   end-to-end figures (the record keeps the count). *)
let window_s = 0.25
let steal_limit = 0.02

type mark = { at : int; steal : int; ticks : int; cpu : float }

type window = {
  ops_s : float;
  p50 : float;
  p99 : float;
  get : float array;
  set : float array;
  steal_share : float;
  cpu_s : float;  (* server CPU time in the window *)
  ops : int;
}

let mark ~pid now =
  let steal, ticks = cpu_ticks () in
  { at = now; steal; ticks; cpu = Child.cpu_s pid }

(* Samples of [r] completed between consecutive marks. *)
let windows (r : Driver.result) marks =
  let marks = Array.of_list (List.rev marks) in
  let n = max 0 (Array.length marks - 1) in
  let done_at = Stats.to_array r.Driver.done_at and lat = Stats.to_array r.Driver.all_lat in
  let kind = Stats.to_array r.Driver.kind in
  let all = Array.init n (fun _ -> Stats.samples ()) in
  let get = Array.init n (fun _ -> Stats.samples ()) in
  let set = Array.init n (fun _ -> Stats.samples ()) in
  let w = ref 0 in
  Array.iteri
    (fun i t ->
      while !w < n && t >= float_of_int marks.(!w + 1).at do incr w done;
      if !w < n && t >= float_of_int marks.(0).at then begin
        Stats.add all.(!w) lat.(i);
        if kind.(i) = Driver.kind_get then Stats.add get.(!w) lat.(i)
        else if kind.(i) = Driver.kind_set then Stats.add set.(!w) lat.(i)
      end)
    done_at;
  Array.init n (fun i ->
      let a = marks.(i) and b = marks.(i + 1) in
      {
        ops_s = float_of_int (Stats.count all.(i)) /. (float_of_int (b.at - a.at) /. 1e9);
        p50 = Stats.median (Stats.to_array all.(i));
        p99 = Stats.quantile (Stats.to_array all.(i)) 0.99;
        get = Stats.to_array get.(i);
        set = Stats.to_array set.(i);
        steal_share =
          Layers.ratio (float_of_int (b.steal - a.steal)) (float_of_int (b.ticks - a.ticks));
        cpu_s = b.cpu -. a.cpu;
        ops = Stats.count all.(i);
      })

(* The windows under the steal limit; if fewer than half qualify, the
   quarter with the least steal. *)
let quiet ws =
  let q = List.filter (fun w -> w.steal_share <= steal_limit) ws in
  let n = List.length ws in
  if 2 * List.length q >= n then q
  else
    List.sort (fun a b -> compare a.steal_share b.steal_share) ws
    |> List.filteri (fun i _ -> 4 * i < n)

(* Loaded throughput with the hypervisor's steal taken out. Steal comes
   in episodes that last minutes, longer than a run, and in such a run
   no window is quiet; so the run fits a Theil–Sen line through every
   window's (steal share, ops/s) and reports its value at zero steal.
   Steal can only cost throughput, so a rising fit counts as flat, and
   the estimate never exceeds the run's best window. On a quiet run it
   is the median window. Returns the estimate and the fitted slope. *)
let steal_free_ops ws =
  let xs = Array.of_list (List.map (fun w -> w.steal_share) ws) in
  let ys = Array.of_list (List.map (fun w -> w.ops_s) ws) in
  (* Half a tick (1/100 s) of steal over the window's CPU time: pairs
     closer than that stole the same number of ticks. *)
  let cpus = float_of_int (Domain.recommended_domain_count ()) in
  let half_tick = 0.5 /. (window_s *. 100.0 *. cpus) in
  let slope = Float.min 0.0 (Stats.theil_sen_slope ~min_dx:half_tick xs ys) in
  let at0 = Stats.median (Array.map2 (fun x y -> y -. (slope *. x)) xs ys) in
  (Float.min at0 (Array.fold_left Float.max 0.0 ys), slope)

(* One server process, set up and measured. *)
type round = {
  setup_s : float;
  idle : Driver.result;
  loaded : Driver.result;
  idle_w : window array;
  loaded_w : window array;
  rss_mb : float;
  runs : Driver.result list;  (* every driver run of the round *)
  violations : string list;
  n_violations : int;
  readback_keys : int;
}

(* Set-up (spawn, preload every key over both connections, answer one
   measured request), then the idle and loaded phases, then the
   quiescent read-back of the hot keys. [stream] carries on across
   rounds. *)
let round cfg ~wire ~stream ~wal_dir ~idle_delta ~loaded_delta =
  let spec = cfg.spec in
  Option.iter rm_rf wal_dir;
  let t0 = Stats.now_ns () in
  let child = Child.spawn ~server:cfg.server ~args:(Child.flags ~wal_dir) in
  live := Some child;
  let conns = List.init 2 (fun _ -> Driver.connect wire ~port:child.Child.port) in
  let one = [ List.hd conns ] in
  let checker = Checker.create ~keys:spec.Workload.keys in
  let run ?(conns = conns) ~depth ~seconds source =
    Driver.run ~wire ~checker ~conns ~depth ~deadline:(Driver.after seconds) ~source ()
  in
  let pre = run ~depth:256 ~seconds:120.0 (Driver.preload_source spec.Workload.keys) in
  let first =
    run ~conns:one ~depth:1 ~seconds:10.0
      (Driver.of_list [ { Workload.op = Workload.Get; key = 0 } ])
  in
  let setup_s = float_of_int (Stats.now_ns () - t0) /. 1e9 in
  let source () = Some (Workload.next stream) in
  let share = cfg.seconds /. float_of_int cfg.rounds in
  let pid = Child.pid child in
  let windowed ~conns ~depth ~seconds =
    let marks = ref [] in
    let every = (int_of_float (window_s *. 1e9), fun now -> marks := mark ~pid now :: !marks) in
    let r =
      Driver.run ~every ~wire ~checker ~conns ~depth ~deadline:(Driver.after seconds) ~source ()
    in
    (r, windows r !marks)
  in
  let s0 = Child.scrape child in
  let idle, idle_w = windowed ~conns:one ~depth:1 ~seconds:(0.25 *. share) in
  let s1 = Child.scrape child in
  let loaded, loaded_w = windowed ~conns ~depth:32 ~seconds:(0.75 *. share) in
  let s2 = Child.scrape child in
  Layers.add_delta idle_delta ~before:s0 ~after:s1;
  Layers.add_delta loaded_delta ~before:s1 ~after:s2;
  let hot = Checker.hot_keys checker ~n:4096 in
  let readback =
    run ~depth:32 ~seconds:60.0
      (Driver.of_list (List.map (fun key -> { Workload.op = Workload.Final; key }) hot))
  in
  let rss_mb = Child.peak_rss_mb pid in
  List.iter Driver.close conns;
  Child.kill child;
  live := None;
  Option.iter rm_rf wal_dir;
  {
    setup_s;
    idle;
    loaded;
    idle_w;
    loaded_w;
    rss_mb;
    runs = [ pre; first; idle; loaded; readback ];
    violations = Checker.messages checker;
    n_violations = Checker.violations checker;
    readback_keys = List.length hot;
  }

let pooled f rounds =
  let s = Stats.samples () in
  List.iter (fun r -> Array.iter (Stats.add s) (Stats.to_array (f r))) rounds;
  s

let run cfg =
  let spec = cfg.spec in
  let wire = Wire.create () in
  let wal_dir name =
    if spec.Workload.wal then Some (Filename.concat cfg.work_dir ("wal-" ^ name)) else None
  in
  (try Unix.mkdir cfg.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let host =
    Json.Obj
      [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("fd_limit", Json.Str (fd_limit ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("git_rev", Json.Str (git_rev ()));
        ("pacing_probe", pacing_probe ());
      ]
  in
  let steal0, total0 = cpu_ticks () in
  let stream = Workload.stream spec ~seed:cfg.seed in
  let idle_delta = Hashtbl.create 64 and loaded_delta = Hashtbl.create 64 in
  let rounds =
    List.init cfg.rounds (fun i ->
        round cfg ~wire ~stream ~wal_dir:(wal_dir (string_of_int i)) ~idle_delta ~loaded_delta)
  in
  let steal1, total1 = cpu_ticks () in
  let steal_share =
    Layers.ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0))
  in
  let traced, alone =
    if not cfg.trace then (None, [])
    else begin
      Gc.compact ();
      let wd = wal_dir "traced" in
      let tr = Layers.traced_run spec ~seed:cfg.seed ~phase_s:(0.15 *. cfg.seconds) ~wal_dir:wd in
      Option.iter rm_rf wd;
      Gc.compact ();
      let wd = Filename.concat cfg.work_dir "wal-alone" in
      rm_rf wd;
      let alone = Layers.alone spec ~seed:cfg.seed ~seconds:(0.05 *. cfg.seconds) ~wal_dir:wd in
      rm_rf wd;
      (Some tr, alone)
    end
  in
  let runs = List.concat_map (fun r -> r.runs) rounds in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let attempted =
    sum (fun (r : Driver.result) -> r.Driver.attempted) runs
    + Option.fold ~none:0 ~some:(fun t -> t.Layers.attempted) traced
  in
  let failed =
    sum (fun (r : Driver.result) -> r.Driver.failed) runs
    + Option.fold ~none:0 ~some:(fun t -> t.Layers.failed) traced
  in
  let violations = sum (fun r -> r.n_violations) rounds in
  let correct = failed = 0 && violations = 0 in
  let spans = Option.map (fun t -> t.Layers.spans) traced in
  let us = 1e-3 in
  let all_w f = List.concat_map (fun r -> Array.to_list (f r)) rounds in
  let idle_q = quiet (all_w (fun r -> r.idle_w)) in
  let loaded_q = quiet (all_w (fun r -> r.loaded_w)) in
  let loaded_ops, steal_slope = steal_free_ops (all_w (fun r -> r.loaded_w)) in
  let pooled_p50 f = us *. Stats.median (Array.concat (List.map f idle_q)) in
  let each f ws = Array.of_list (List.map f ws) in
  let per_round f = Array.of_list (List.map f rounds) in
  let fsum f ws = List.fold_left (fun acc w -> acc +. f w) 0.0 ws in
  let end_to_end =
    [
      m "idle_get_p50_us" "us" (pooled_p50 (fun w -> w.get));
      m "idle_set_p50_us" "us" (pooled_p50 (fun w -> w.set));
      m "loaded_ops_s" "1/s" loaded_ops;
      m "loaded_p50_us" "us" (us *. Stats.median (each (fun w -> w.p50) loaded_q));
      m "server_cpu_us_per_op" "us"
        (1e6 *. fsum (fun w -> w.cpu_s) loaded_q /. fsum (fun w -> float_of_int w.ops) loaded_q);
      m "setup_s" "s" (Stats.median (per_round (fun r -> r.setup_s)));
      m "server_rss_mb" "MB" (Stats.median (per_round (fun r -> r.rss_mb)));
    ]
  in
  let client_mean f =
    let rs = List.map f rounds in
    Layers.ratio
      (List.fold_left (fun acc (r : Driver.result) -> acc +. r.Driver.client_sum_ns) 0.0 rs)
      (float_of_int (sum (fun (r : Driver.result) -> r.Driver.completed) rs))
  in
  let per_layer =
    Layers.scraped ~phase:"idle" ~delta:idle_delta ~client_mean_ns:(client_mean (fun r -> r.idle))
    @ Layers.scraped ~phase:"loaded" ~delta:loaded_delta
        ~client_mean_ns:(client_mean (fun r -> r.loaded))
    @ Option.fold ~none:[] ~some:(fun t -> t.Layers.metrics) traced
    @ alone
    @ [ m "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted)) ]
  in
  let phase_json f =
    let rs = List.map f rounds in
    Json.Obj
      [
        ("attempted", Json.Int (sum (fun (r : Driver.result) -> r.Driver.attempted) rs));
        ("completed", Json.Int (sum (fun (r : Driver.result) -> r.Driver.completed) rs));
        ("failed", Json.Int (sum (fun (r : Driver.result) -> r.Driver.failed) rs));
        ("get", lat_json (pooled (fun r -> (f r).Driver.get_lat) rounds));
        ("set", lat_json (pooled (fun r -> (f r).Driver.set_lat) rounds));
        ("all", lat_json (pooled (fun r -> (f r).Driver.all_lat) rounds));
      ]
  in
  let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  let strs l = Json.List (List.map (fun x -> Json.Str x) l) in
  let record =
    Json.Obj
      [
        ("workload", Json.Str spec.Workload.name);
        ("keys", Json.Int spec.Workload.keys);
        ("seed", Json.Int cfg.seed);
        ("seconds", Json.Float cfg.seconds);
        ("rounds", Json.Int cfg.rounds);
        ("trace", Json.Bool cfg.trace);
        ("host", host);
        ("host_steal_share", Json.Float steal_share);
        ("server_flags", strs (Child.flags ~wal_dir:(wal_dir "<n>")));
        ("setup_s", floats (per_round (fun r -> r.setup_s)));
        ("server_rss_mb", floats (per_round (fun r -> r.rss_mb)));
        ("idle", phase_json (fun r -> r.idle));
        ("loaded", phase_json (fun r -> r.loaded));
        (* Reported, not gated: see README.md. *)
        ("loaded_p99_us", Json.Float (us *. Stats.median (each (fun w -> w.p99) loaded_q)));
        ( "loaded_ops_s_quiet_median",
          Json.Float (Stats.median (each (fun w -> w.ops_s) loaded_q)) );
        ("loaded_ops_s_per_steal", Json.Float steal_slope);
        ( "windows",
          Json.Obj
            (List.map
               (fun (name, f, q) ->
                 let ws = all_w f in
                 ( name,
                   Json.Obj
                     [
                       ("n", Json.Int (List.length ws));
                       ("quiet", Json.Int (List.length q));
                       ("steal_share", floats (each (fun w -> w.steal_share) ws));
                       ("ops_s", floats (each (fun w -> w.ops_s) ws));
                       ("p99_us", floats (each (fun w -> us *. w.p99) ws));
                       ("p50_us", floats (each (fun w -> us *. w.p50) ws));
                     ] ))
               [
                 ("idle", (fun r -> r.idle_w), idle_q);
                 ("loaded", (fun r -> r.loaded_w), loaded_q);
               ]) );
        ("readback_keys", Json.Int (sum (fun r -> r.readback_keys) rounds));
        ("violations", strs (List.concat_map (fun r -> r.violations) rounds));
        ("span_check", Option.fold ~none:Json.Null ~some:Layers.span_check_json spans);
      ]
  in
  { correct; attempted; failed; end_to_end; per_layer; record; spans }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ]))
       ms)

let result_json o ~trace =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json (if trace then o.per_layer else o.end_to_end));
    ]

