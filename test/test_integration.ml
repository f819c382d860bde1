(* Integration tests across substrates.

   1. Randomised single-key schedules executed against the REAL
      Store + Compaction_log with C-4's deferred-response rule, the
      resulting history checked by the linearizability checker: the
      Sec. 4.3.1 argument, validated mechanically over thousands of
      interleavings.

   2. The NIC path end to end over the code both engines run: packets
      parsed by Header, admitted by Crew.Core (EWT pin, single writer),
      dependent writes compacted in one window and applied as one store
      update, and the last response releasing the pin.

   3. Server-model cross-checks tying several modules together. *)

module Store = C4_kvs.Store
module Log = C4_kvs.Compaction_log
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability
module Header = C4_nic.Header
module Core = C4_crew.Core
module Crew_config = C4_crew.Config
module Decision = C4_crew.Decision

(* ------------------------------------------------------------------ *)
(* 1. Compaction linearizability over random schedules.                *)

type op_req = { at : float; is_set : bool; value : int }

(* Execute a schedule against the store with compaction windows of
   [window] length. Sets are buffered while a window is open and all
   answered at window close; gets read the store immediately. Returns
   the observable history. *)
let execute ~window ops =
  let key = 5 in
  let store = Store.create ~n_buckets:32 ~n_partitions:4 () in
  Store.set store ~key ~value:(Bytes.of_string "0");
  let log = Log.create () in
  let history = ref [] in
  let client = ref 0 in
  let fresh_client prefix =
    incr client;
    Printf.sprintf "%s%d" prefix !client
  in
  let close_window ~now =
    match Log.close log ~now with
    | None -> ()
    | Some closed ->
      let values = List.map (fun (p : Log.pending) -> p.Log.value) closed.Log.writes in
      Store.set_batched store ~key ~values;
      (* All buffered sets respond now — the C-4 rule. *)
      List.iter
        (fun (p : Log.pending) ->
          history :=
            History.set
              ~client:(fresh_client "w")
              ~value:(int_of_string (Bytes.to_string p.Log.value))
              ~invoked:p.Log.buffered_at ~responded:now
            :: !history)
        closed.Log.writes
  in
  let step op =
    (* Close an expired window before processing the next arrival. *)
    if Log.window_open log && Log.expired log ~now:op.at then begin
      let deadline = Option.get (Log.expires_at log) in
      close_window ~now:deadline
    end;
    if op.is_set then begin
      if not (Log.window_open log) then
        Log.open_window log ~key ~now:op.at ~expires_at:(op.at +. window);
      Log.absorb log ~key
        {
          Log.request_id = 0;
          sender = 0;
          value = Bytes.of_string (string_of_int op.value);
          buffered_at = op.at;
        }
    end
    else begin
      let seen =
        match fst (Store.get store ~key) with
        | Some b -> int_of_string (Bytes.to_string b)
        | None -> -1
      in
      history :=
        History.get ~client:(fresh_client "r") ~value:seen ~invoked:op.at
          ~responded:(op.at +. 0.001)
        :: !history
    end
  in
  List.iter step ops;
  (* Drain any open window. *)
  (match Log.expires_at log with Some deadline -> close_window ~now:deadline | None -> ());
  History.of_ops !history

let schedule_gen =
  QCheck.Gen.(
    let op =
      map3
        (fun dt is_set value -> (dt, is_set, value))
        (float_range 0.1 5.0) bool (int_range 1 9)
    in
    list_size (int_range 1 20) op
    |> map (fun steps ->
           let time = ref 0.0 in
           List.map
             (fun (dt, is_set, value) ->
               time := !time +. dt;
               { at = !time; is_set; value })
             steps))

let prop_compaction_linearizable =
  QCheck.Test.make ~name:"compaction with deferred responses linearizes (real store)"
    ~count:500
    (QCheck.make ~print:(fun ops -> string_of_int (List.length ops)) schedule_gen)
    (fun ops -> Lin.is_linearizable ~initial:0 (execute ~window:4.0 ops))

let prop_compaction_linearizable_long_windows =
  QCheck.Test.make ~name:"linearizable with long windows too" ~count:200
    (QCheck.make schedule_gen)
    (fun ops -> Lin.is_linearizable ~initial:0 (execute ~window:50.0 ops))

let test_final_value_is_last_buffered () =
  let ops =
    [
      { at = 1.0; is_set = true; value = 3 };
      { at = 2.0; is_set = true; value = 8 };
      { at = 10.0; is_set = false; value = 0 } (* after the window *);
    ]
  in
  let history = execute ~window:4.0 ops in
  Alcotest.(check bool) "linearizable" true (Lin.is_linearizable ~initial:0 history);
  let late_read =
    List.find
      (fun (op : History.op) -> match op.History.kind with History.Get _ -> true | _ -> false)
      (History.ops history)
  in
  (match late_read.History.kind with
  | History.Get v -> Alcotest.(check int) "reads last buffered value" 8 v
  | History.Set _ -> assert false)

(* ------------------------------------------------------------------ *)
(* 2. NIC pipeline end to end.                                         *)

let test_nic_pipeline_compaction () =
  let n_buckets = 256 and n_partitions = 16 in
  let header = Header.register ~layout:Header.default_layout ~n_buckets ~n_partitions in
  let decisions = ref [] in
  let core =
    Core.create
      ~on_decision:(fun d -> decisions := d :: !decisions)
      ~cfg:
        {
          Crew_config.default with
          Crew_config.compaction = Some Crew_config.default_compaction;
        }
      ~n_workers:4 ~n_partitions ()
  in
  let store = Store.create ~n_buckets ~n_partitions () in
  let partition_of key =
    match Header.parse header (Header.encode header ~op:`Write ~key ~value:Bytes.empty) with
    | Ok p -> p.Header.partition
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let key = 77 in
  let rec other_key k =
    if partition_of k <> partition_of key then k else other_key (k + 1)
  in
  let other = other_key (key + 1) in
  (* NIC: parse each packet, take its value from behind the header, and
     admit it through the EWT -> JBSQ procedure. Request id = position. *)
  let admit (id, k, v) =
    let packet = Header.encode header ~op:`Write ~key:k ~value:(Bytes.of_string v) in
    match Header.parse header packet with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok p -> (
      Alcotest.(check int) "key parsed" k p.Header.key;
      let off = Header.header_size header in
      let value = Bytes.sub packet off (Bytes.length packet - off) in
      match
        Core.admit_write core ~partition:p.Header.partition ~now:(float_of_int id)
          ~pick:(`Balanced (0, 4))
      with
      | Core.Admitted { worker; fresh; _ } -> (id, p, value, worker, fresh)
      | Core.No_slot | Core.Rejected _ -> Alcotest.failf "write %d not admitted" id)
  in
  let writes = List.map admit [ (0, key, "v1"); (1, key, "v2"); (2, key, "v3") ] in
  let _, p, _, w, _ = List.hd writes in
  List.iteri
    (fun i (_, _, _, worker, fresh) ->
      Alcotest.(check bool) "only the first write pins" (i = 0) fresh;
      Alcotest.(check int) "single writer" w worker)
    writes;
  Alcotest.(check int) "EWT counts all three" 3
    (Core.ewt_outstanding core ~partition:p.Header.partition);
  let _, op, ov, ow, ofresh = admit (3, other, "zz") in
  Alcotest.(check bool) "independent write pins its own partition" true ofresh;
  Alcotest.(check bool) "JBSQ balances it off the busy worker" true (ow <> w);
  (* Worker w: the first write opens a window on its key, the dependent
     writes are absorbed, and the close hands back all three. *)
  ignore
    (Core.open_window core ~worker:w ~key ~now:3.0 ~arrival:0.0 ~mean_service:10.0);
  List.iter
    (fun (id, _, _, _, _) -> Core.absorb core ~worker:w ~key ~id ~now:3.0)
    writes;
  Alcotest.(check bool) "window refuses the other key" false
    (Core.window_accepts core ~worker:w ~key:other);
  let closed =
    match Core.close_window core ~worker:w ~now:4.0 with
    | Some c -> c
    | None -> Alcotest.fail "no window to close"
  in
  let ids = List.map (fun (r : Log.pending) -> r.Log.request_id) closed.Log.writes in
  Alcotest.(check (list int)) "absorbed in arrival order" [ 0; 1; 2 ] ids;
  (* Compact: one combined store update from the batch. *)
  Store.set_batched store ~key
    ~values:(List.map (fun id -> let _, _, v, _, _ = List.nth writes id in v) ids);
  Alcotest.(check (option string)) "store holds final value" (Some "v3")
    (Option.map Bytes.to_string (fst (Store.get store ~key)));
  (* Respond to every compacted write; the LAST response releases the
     pin (outstanding counter reaches zero). *)
  List.iter
    (fun _ ->
      Alcotest.(check int) "still pinned before the last response" w
        (Core.route_owner core ~partition:p.Header.partition);
      Core.write_done core ~partition:p.Header.partition;
      Core.complete core ~worker:w)
    ids;
  (match !decisions with
  | Decision.Unpin { partition } :: _ ->
    Alcotest.(check int) "last response unpins" p.Header.partition partition
  | _ -> Alcotest.fail "last write_done did not unpin");
  Alcotest.(check int) "partition balanceable again" 0
    (Core.ewt_outstanding core ~partition:p.Header.partition);
  (* The independent write proceeds normally on its own worker. *)
  Store.set store ~key:other ~value:ov;
  Core.write_done core ~partition:op.Header.partition;
  Core.complete core ~worker:ow;
  Alcotest.(check (option string)) "independent value stored" (Some "zz")
    (Option.map Bytes.to_string (fst (Store.get store ~key:other)));
  Alcotest.(check int) "EWT empty" 0 (Core.ewt_occupancy core);
  List.iter
    (fun worker ->
      Alcotest.(check int) "JBSQ slots returned" 0 (Core.occupancy core ~worker))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* 3. Cross-module sanity: the model's partition function agrees with
      what the NIC parses from the wire. *)

let test_partition_agreement () =
  let n_buckets = 4096 and n_partitions = 64 in
  let header = Header.register ~layout:Header.default_layout ~n_buckets ~n_partitions in
  for key = 0 to 2_000 do
    match Header.parse header (Header.encode header ~op:`Read ~key ~value:Bytes.empty) with
    | Ok parsed ->
      let expected = C4_kvs.Hash.partition_of_key ~n_buckets ~n_partitions key in
      if parsed.Header.partition <> expected then
        Alcotest.failf "key %d: NIC %d vs KVS %d" key parsed.Header.partition expected
    | Error e -> Alcotest.failf "parse: %s" e
  done

let tests =
  [
    QCheck_alcotest.to_alcotest prop_compaction_linearizable;
    QCheck_alcotest.to_alcotest prop_compaction_linearizable_long_windows;
    Alcotest.test_case "batch final value visible after close" `Quick
      test_final_value_is_last_buffered;
    Alcotest.test_case "NIC pipeline: parse, pin, compact, respond, release" `Quick
      test_nic_pipeline_compaction;
    Alcotest.test_case "NIC and KVS agree on f(key)" `Quick test_partition_agreement;
  ]
