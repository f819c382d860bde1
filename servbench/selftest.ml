(* The benchmark's own tests: the checker rejects forged answers (unit
   level and through the driver against a forging fake server), the
   span accounting rejects a chain that does not add up, the
   steal-free throughput fit reads made-up windows right, and a
   smoke-size traced run of every workload BENCHMARK.json lists passes
   its checks and prints every metric it names, with its unit. *)

module Wire = C4_net.Wire
module Span = C4_obs.Span
module Json = C4_obs.Json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let stamp = Workload.stamp

let checker_unit () =
  let ck = Checker.create ~keys:8 in
  let w = Checker.issue_write ck ~key:3 ~del:false in
  check "checker: own stamp accepted" (Checker.check_get ck ~key:3 Wire.Ok (stamp ~key:3 ~wn:1));
  check "checker: foreign key stamp rejected"
    (not (Checker.check_get ck ~key:3 Wire.Ok (stamp ~key:4 ~wn:1)));
  check "checker: never-issued write number rejected"
    (not (Checker.check_get ck ~key:3 Wire.Ok (stamp ~key:3 ~wn:2)));
  let torn = stamp ~key:3 ~wn:1 in
  Bytes.set_int64_le torn (Workload.value_len - 8) 0L;
  check "checker: torn value rejected" (not (Checker.check_get ck ~key:3 Wire.Ok torn));
  check "checker: short value rejected"
    (not (Checker.check_get ck ~key:3 Wire.Ok (Bytes.sub (stamp ~key:3 ~wn:1) 0 100)));
  check "checker: Not_found for a never-deleted key rejected"
    (not (Checker.check_get ck ~key:3 Wire.Not_found Bytes.empty));
  ignore (Checker.ack_write ck ~key:3 w Wire.Ok);
  check "checker: read-back of the last acknowledged write accepted"
    (Checker.check_final ck ~key:3 Wire.Ok (stamp ~key:3 ~wn:1));
  check "checker: read-back of a superseded write rejected"
    (not (Checker.check_final ck ~key:3 Wire.Ok (stamp ~key:3 ~wn:0)));
  let d = Checker.issue_write ck ~key:5 ~del:true in
  ignore (Checker.ack_write ck ~key:5 d Wire.Ok);
  check "checker: read-back Not_found after an acknowledged DELETE accepted"
    (Checker.check_final ck ~key:5 Wire.Not_found Bytes.empty);
  check "checker: read-back of a deleted key's old value rejected"
    (not (Checker.check_final ck ~key:5 Wire.Ok (stamp ~key:5 ~wn:0)))

(* A one-connection server that answers every GET with a forged
   response: [`Foreign] stamps key+1's value, [`Swapped] answers each
   pair of requests in reverse id order. *)
let forging_server forge =
  let wire = Wire.create () in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let serve () =
    let fd, _ = Unix.accept lfd in
    let dec = Wire.Decoder.create wire in
    let buf = Bytes.create 4096 in
    let held = ref [] in
    let answer (q : Wire.request) ~key =
      let r =
        { Wire.resp_id = q.Wire.id; status = Wire.Ok; timing_ns = 0; resp_value = stamp ~key ~wn:0 }
      in
      let b = Wire.encode_response wire r in
      ignore (Unix.write fd b 0 (Bytes.length b))
    in
    let rec loop () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 | (exception Unix.Unix_error _) -> ()
      | n ->
        Wire.Decoder.feed dec buf ~off:0 ~len:n;
        let rec frames () =
          match Wire.Decoder.next_frame dec with
          | `Frame body -> (
            match Wire.decode_request wire body with
            | Ok q ->
              (match forge with
              | `Foreign -> answer q ~key:(q.Wire.key + 1)
              | `Swapped -> (
                match !held with
                | [] -> held := [ q ]
                | first :: _ ->
                  held := [];
                  answer q ~key:q.Wire.key;
                  answer first ~key:first.Wire.key));
              frames ()
            | Error _ -> ())
          | `Awaiting | `Corrupt _ -> ()
        in
        frames ();
        loop ()
    in
    loop ();
    Unix.close fd;
    Unix.close lfd
  in
  (port, Thread.create serve ())

let forged_through_driver forge name =
  let port, th = forging_server forge in
  let wire = Wire.create () in
  let checker = Checker.create ~keys:8 in
  let c = Driver.connect wire ~port in
  let r =
    Driver.run ~wire ~checker ~conns:[ c ] ~depth:2 ~deadline:(Driver.after 5.0)
      ~source:(Driver.of_list (List.map (fun key -> { Workload.op = Workload.Get; key }) [ 1; 2 ]))
      ()
  in
  Driver.close c;
  Thread.join th;
  check
    (Printf.sprintf "driver: %s counted as failed (%d failed, %d violations)" name
       r.Driver.failed (Checker.violations checker))
    (r.Driver.failed > 0 && Checker.violations checker > 0)

let span_accounting () =
  let buf = Span.create () in
  let sp name t0 t1 ~parent =
    let s = Span.start ?parent buf ~name ~ts:t0 in
    Span.finish buf s ~ts:t1;
    s
  in
  let chain ~gap =
    let client = sp "client.request" 0.0 100_000.0 ~parent:None in
    let recv = sp "server.recv" 10_000.0 20_000.0 ~parent:(Some (Span.context client)) in
    let apply = sp "server.apply" (19_000.0 +. gap) 60_000.0 ~parent:(Some (Span.context recv)) in
    let respond = sp "server.respond" 60_000.0 70_000.0 ~parent:(Some (Span.context apply)) in
    Layers.stages_of ~client ~recv ~apply ~respond
  in
  (match chain ~gap:0.0 with
  | Ok st ->
    check "spans: contiguous chain adds up to the client span"
      (st.Layers.recv = 9_000.0 && st.Layers.apply = 41_000.0 && st.Layers.respond = 10_000.0
     && st.Layers.wire = 40_000.0)
  | Error e -> check ("spans: contiguous chain adds up to the client span: " ^ e) false);
  let late = Span.start buf ~name:"client.request" ~ts:0.0 in
  Span.finish buf late ~ts:50_000.0;
  let recv = sp "server.recv" 10_000.0 20_000.0 ~parent:None in
  let apply = sp "server.apply" 20_000.0 60_000.0 ~parent:None in
  let respond = sp "server.respond" 60_000.0 70_000.0 ~parent:None in
  check "spans: a respond span outliving its client span is clipped, its overshoot kept"
    (match Layers.stages_of ~client:late ~recv ~apply ~respond with
    | Ok st ->
      st.Layers.respond = 0.0 && st.Layers.overshoot = 20_000.0 && st.Layers.wire = 10_000.0
    | Error _ -> false);
  check "spans: a recv/apply gap is reported as time in no stage"
    (match chain ~gap:10_000.0 with Ok st -> st.Layers.gap = 9_000.0 | Error _ -> false);
  let client = sp "client.request" 0.0 100_000.0 ~parent:None in
  let recv = sp "server.recv" 10_000.0 20_000.0 ~parent:None in
  let apply = sp "server.apply" 19_000.0 60_000.0 ~parent:None in
  let respond = sp "server.respond" 15_000.0 25_000.0 ~parent:None in
  check "spans: time counted in two stages rejected"
    (Result.is_error (Layers.stages_of ~client ~recv ~apply ~respond))

(* The steal-free throughput fit on made-up windows. *)
let steal_fit () =
  let w steal_share ops_s =
    { Bench.ops_s; p50 = 0.0; p99 = 0.0; get = [||]; set = [||]; steal_share; cpu_s = 0.0; ops = 0 }
  in
  let fit ws = fst (Bench.steal_free_ops ws) in
  let near a b = Float.abs (a -. b) < 1e-6 *. b in
  let line s = 100_000.0 -. (200_000.0 *. s) in
  let stolen = List.init 19 (fun i -> 0.04 +. (0.02 *. float_of_int i)) in
  check "steal fit: a stolen run reads its line at zero steal, past a lucky window"
    (near (fit (w 0.3 110_000.0 :: List.map (fun s -> w s (line s)) stolen)) 100_000.0);
  check "steal fit: never above the best window"
    (near (fit (List.map (fun s -> w s (line s)) stolen)) (line 0.04));
  check "steal fit: a quiet run gives its median window"
    (near (fit (List.map (w 0.0) [ 90_000.0; 100_000.0; 120_000.0 ])) 100_000.0);
  check "steal fit: throughput rising with steal counts as flat"
    (near (fit [ w 0.0 90_000.0; w 0.1 95_000.0; w 0.2 100_000.0 ]) 95_000.0)

let listed key =
  let doc = Json.of_string (Child.read_all "BENCHMARK.json") in
  Option.value ~default:[] (Option.bind (Json.member key doc) Json.to_list_opt)

let field name e = Option.bind (Json.member name e) Json.to_string_opt

let named key =
  listed key
  |> List.filter_map (fun e ->
         match (field "name" e, field "unit" e) with Some n, Some u -> Some (n, u) | _ -> None)

let smoke ~server ~work_dir =
  let e2e = named "end_to_end" and layer = named "per_layer" in
  check "BENCHMARK.json names end-to-end and per-layer metrics" (e2e <> [] && layer <> []);
  List.iter
    (fun spec ->
      let spec = Workload.smoke spec in
      let o =
        Bench.run
          { Bench.spec; seed = 7; seconds = 2.0; trace = true; server; work_dir; rounds = 1 }
      in
      let name = spec.Workload.name in
      check
        (Printf.sprintf "%s smoke: correct (%d ops, %d failed)" name o.Bench.attempted
           o.Bench.failed)
        o.Bench.correct;
      (match o.Bench.spans with
      | None -> check (name ^ " smoke: traced run made") false
      | Some c ->
        check (Printf.sprintf "%s smoke: %d traced requests, none malformed" name c.Layers.checked)
          (c.Layers.checked > 0 && c.Layers.malformed = []);
        (* Lock waits between the recv and apply spans leave a few
           requests with time in no stage; bound how many and how much. *)
        let share = float_of_int c.Layers.within /. float_of_int (max 1 c.Layers.checked) in
        check
          (Printf.sprintf
             "%s smoke: %.2f%% of requests add up within %.0f ns (>= 97%%), %.3f%% of \
              client time in no stage (<= 1%%)"
             name (100.0 *. share) Layers.tolerance_ns (100.0 *. c.Layers.unaccounted))
          (share >= 0.97 && c.Layers.unaccounted <= 0.01));
      let printed ms (n, u) =
        match List.find_opt (fun x -> x.Layers.name = n) ms with
        | Some x ->
          Printf.printf "     %-40s %14.4f %s\n" n x.Layers.value x.Layers.unit;
          x.Layers.unit = u && Float.is_finite x.Layers.value
        | None -> false
      in
      let missing ms names = List.filter (fun nu -> not (printed ms nu)) names in
      let m1 = missing o.Bench.end_to_end e2e and m2 = missing o.Bench.per_layer layer in
      check (Printf.sprintf "%s smoke: every named metric printed with its unit%s" name
               (String.concat "" (List.map (fun (n, _) -> " missing:" ^ n) (m1 @ m2))))
        (m1 = [] && m2 = []))
    (List.filter_map (fun e -> Option.bind (field "name" e) Workload.find) (listed "workloads"))

let run ~server ~work_dir =
  checker_unit ();
  forged_through_driver `Foreign "a foreign key stamp";
  forged_through_driver `Swapped "an out-of-order response id";
  span_accounting ();
  steal_fit ();
  smoke ~server ~work_dir;
  Printf.printf "%s: %d failure(s)\n"
    (if !failures = 0 then "selftest passed" else "selftest FAILED")
    !failures;
  if !failures = 0 then 0 else 1
