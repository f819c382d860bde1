module Sync = C4_runtime.Sync
module Promise = C4_runtime.Promise
module Retry = C4_resilience.Retry
module Span = C4_obs.Span

type config = {
  host : string;
  port : int;
  conns : int;
  max_frame : int;
  retry : Retry.config option;
  retry_seed : int;
  spans : Span.t option;
}

let default_config ~host ~port =
  {
    host;
    port;
    conns = 1;
    max_frame = 1 lsl 20;
    retry = None;
    retry_seed = 1;
    spans = None;
  }

let now_ns () = Unix.gettimeofday () *. 1e9

type conn = {
  c_fd : Unix.file_descr;
  c_pending : (int, Wire.response -> unit) Hashtbl.t;
  c_lock : Mutex.t;  (* guards c_pending and socket writes *)
  c_alive : bool Atomic.t;
  mutable c_reader : Thread.t option;
}

type slot = {
  s_lock : Mutex.t;
  mutable s_conn : conn option;
}

type t = {
  cfg : config;
  wire : Wire.t;
  slots : slot array;
  next_id : int Atomic.t;
  token_nonce : int;
  rr : int Atomic.t;
  budget : Retry.Budget.budget option;
  budget_lock : Mutex.t;
  closed : bool Atomic.t;
}

(* Idempotency tokens must be unique across client INSTANCES, not just
   within one: the server's per-partition token table is shared by every
   client, so two processes both counting 0, 1, 2... would suppress each
   other's genuinely-new writes as duplicates. Each client mixes a
   60-bit nonce (pid, wall clock, per-process instance counter) into its
   tokens; request ids stay small and per-connection. *)
let instance_counter = Atomic.make 0

let make_token_nonce () =
  let c = Atomic.fetch_and_add instance_counter 1 in
  let now = Unix.gettimeofday () in
  let h1 = Hashtbl.hash (Unix.getpid (), now, c) in
  let h2 = Hashtbl.hash (c, now, Unix.getpid (), 0xc4) in
  ((h1 lsl 30) lxor h2) land max_int

let create cfg =
  (* A server dying mid-write must surface as EPIPE on the socket, not
     kill the whole client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.conns < 1 then invalid_arg "Net.Client.create: conns";
  {
    cfg;
    wire = Wire.create ~max_frame:cfg.max_frame ();
    slots = Array.init cfg.conns (fun _ -> { s_lock = Mutex.create (); s_conn = None });
    next_id = Atomic.make 0;
    token_nonce = make_token_nonce ();
    rr = Atomic.make 0;
    budget = Option.map Retry.Budget.create cfg.retry;
    budget_lock = Mutex.create ();
    closed = Atomic.make false;
  }

let synth_err id msg =
  { Wire.resp_id = id; status = Wire.Err; timing_ns = 0; resp_value = Bytes.of_string msg }

(* Fail every outstanding request on a dying connection. Handlers run
   outside the lock — they may dispatch again. *)
let fail_pending conn msg =
  let victims =
    Sync.with_lock conn.c_lock (fun () ->
        let v = Hashtbl.fold (fun id h acc -> (id, h) :: acc) conn.c_pending [] in
        Hashtbl.reset conn.c_pending;
        v)
  in
  List.iter (fun (id, h) -> h (synth_err id msg)) victims

let kill_conn conn msg =
  if Atomic.exchange conn.c_alive false |> not then ()
  else begin
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    fail_pending conn msg
  end

let write_all fd b =
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

let reader_loop t conn () =
  let decoder = Wire.Decoder.create t.wire in
  let chunk = Bytes.create 65536 in
  let deliver body =
    match Wire.decode_response t.wire body with
    | Error msg -> Error msg
    | Ok resp ->
      let handler =
        Sync.with_lock conn.c_lock (fun () ->
            match Hashtbl.find_opt conn.c_pending resp.Wire.resp_id with
            | Some h ->
              Hashtbl.remove conn.c_pending resp.Wire.resp_id;
              Some h
            | None -> None)
      in
      (* An unmatched id is tolerated: it belongs to a dispatch whose
         handler was already failed when the conn was being killed. *)
      (match handler with Some h -> h resp | None -> ());
      Ok ()
  in
  let rec frames () =
    match Wire.Decoder.next_frame decoder with
    | `Awaiting -> Ok ()
    | `Corrupt msg -> Error msg
    | `Frame body -> ( match deliver body with Ok () -> frames () | e -> e)
  in
  let rec loop () =
    match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> "connection closed by server"
    | n ->
      Wire.Decoder.feed decoder chunk ~off:0 ~len:n;
      (match frames () with Ok () -> loop () | Error msg -> msg)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception
        Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.EINVAL | Unix.ENOTCONN), _, _)
      ->
      "connection reset"
  in
  (* Any escaping exception is connection-fatal: kill_conn must run, or
     callers blocked in Promise.await would hang forever. *)
  let msg =
    try loop () with exn -> "reader failed: " ^ Printexc.to_string exn
  in
  kill_conn conn msg;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.cfg.port));
    Unix.setsockopt fd Unix.TCP_NODELAY true
  with
  | () ->
    let conn =
      {
        c_fd = fd;
        c_pending = Hashtbl.create 64;
        c_lock = Mutex.create ();
        c_alive = Atomic.make true;
        c_reader = None;
      }
    in
    conn.c_reader <- Some (Thread.create (fun () -> reader_loop t conn ()) ());
    Ok conn
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "connect %s:%d: %s" t.cfg.host t.cfg.port (Unix.error_message e))

(* Live connection for [slot], reconnecting if the last one died.
   [t.closed] is re-checked under the slot lock: close() flips it before
   sweeping the slots, so a dispatch racing with close can never open a
   fresh connection that the sweep would miss. *)
let conn_of t slot =
  Sync.with_lock slot.s_lock (fun () ->
      if Atomic.get t.closed then Error "client closed"
      else
      match slot.s_conn with
      | Some c when Atomic.get c.c_alive -> Ok c
      | _ ->
        (match connect t with
        | Ok c ->
          slot.s_conn <- Some c;
          Ok c
        | Error _ as e ->
          slot.s_conn <- None;
          e))

let dispatch_with t ~id ~op ~key ~value ~token ~parent ~on_response =
  (match op with
  | Wire.Set | Wire.Cluster_info -> ()
  | Wire.Get | Wire.Delete ->
    if Bytes.length value > 0 then
      invalid_arg "Net.Client.dispatch: value on non-SET");
  (* The client span is the root of the request's trace (or a child of
     [parent] when the caller is itself traced): it opens before the
     frame is built, covers client queueing + wire transit + server
     time, and closes in the reader thread with the response. Its
     context rides the wire so the server's spans parent under it. *)
  let sp =
    match t.cfg.spans with
    | None -> None
    | Some buf ->
      let s = Span.start ?parent buf ~name:"client.dispatch" ~ts:(now_ns ()) in
      Span.annotate buf s ~key:"op" ~value:(Wire.op_name op);
      Span.annotate buf s ~key:"key" ~value:(string_of_int key);
      Span.annotate buf s ~key:"req_id" ~value:(string_of_int id);
      Some (buf, s)
  in
  let trace =
    Option.map
      (fun (_, s) ->
        let c = Span.context s in
        { Wire.trace_id = c.Span.trace_id; parent_span = c.Span.span_id })
      sp
  in
  let on_response resp =
    (match sp with
    | None -> ()
    | Some (buf, s) ->
      Span.annotate buf s ~key:"status" ~value:(Wire.status_name resp.Wire.status);
      Span.finish buf s ~ts:(now_ns ()));
    on_response resp
  in
  if Atomic.get t.closed then begin
    on_response (synth_err id "client closed");
    id
  end
  else begin
    let slot = t.slots.(Atomic.fetch_and_add t.rr 1 mod Array.length t.slots) in
    (match conn_of t slot with
    | Error msg -> on_response (synth_err id msg)
    | Ok conn ->
      let frame = Wire.encode_request t.wire { Wire.id; op; key; token; trace; value } in
      let sent =
        Sync.with_lock conn.c_lock (fun () ->
            if not (Atomic.get conn.c_alive) then false
            else begin
              Hashtbl.replace conn.c_pending id on_response;
              if write_all conn.c_fd frame then true
              else begin
                Hashtbl.remove conn.c_pending id;
                false
              end
            end)
      in
      if not sent then begin
        kill_conn conn "write failed";
        on_response (synth_err id "write failed")
      end);
    id
  end

let dispatch t ~op ~key ?(value = Bytes.empty) ?token ?parent ~on_response () =
  let id = Atomic.fetch_and_add t.next_id 1 in
  dispatch_with t ~id ~op ~key ~value ~token ~parent ~on_response

(* ---- synchronous retrying calls ---- *)

(* [id] = [Some i] reuses a pre-reserved request id (first SET attempt). *)
let once t ~id ~op ~key ~value ~token =
  let id =
    match id with Some i -> i | None -> Atomic.fetch_and_add t.next_id 1
  in
  let p = Promise.create () in
  let (_ : int) =
    dispatch_with t ~id ~op ~key ~value ~token ~parent:None ~on_response:(fun r ->
        Promise.fulfil p r)
  in
  (id, Promise.await p)

(* Charge the shared budget for one more retry; grants the failed
   original its credits first. *)
let budget_allows t =
  match t.budget with
  | None -> true
  | Some b -> Sync.with_lock t.budget_lock (fun () -> Retry.Budget.try_charge b)

let note_failed_original t =
  match t.budget with
  | None -> ()
  | Some b -> Sync.with_lock t.budget_lock (fun () -> Retry.Budget.note_failed_original b)

let call t ~op ~key ~value =
  match t.cfg.retry with
  | None ->
    let _, resp = once t ~id:None ~op ~key ~value ~token:None in
    resp
  | Some cfg ->
    let start = Unix.gettimeofday () in
    let deadline_ok () =
      cfg.Retry.deadline <= 0.0
      || (Unix.gettimeofday () -. start) *. 1e9 < cfg.Retry.deadline
    in
    (* SETs carry an idempotency token derived from the first attempt's
       id: it must ride along from attempt one, or a duplicate of the
       original could land after a tokenless first apply. Reserve the
       id before dispatching so attempt 1 already carries it. The token
       mixes in the per-instance nonce so tokens never collide across
       clients sharing a server. *)
    let reserved =
      match op with
      | Wire.Set -> Some (Atomic.fetch_and_add t.next_id 1)
      | Wire.Get | Wire.Delete | Wire.Cluster_info -> None
    in
    let token = Option.map (fun id -> t.token_nonce lxor id) reserved in
    let first_id = ref None in
    let rec attempt n =
      let id, resp =
        once t
          ~id:(if n = 1 then reserved else None)
          ~op ~key ~value ~token
      in
      if !first_id = None then first_id := Some id;
      if resp.Wire.status <> Wire.Err then resp
      else begin
        if n = 1 then note_failed_original t;
        if n >= cfg.Retry.max_attempts || not (deadline_ok ())
           || not (budget_allows t)
        then resp
        else begin
          let ns =
            Retry.backoff_ns cfg ~seed:t.cfg.retry_seed
              ~original:(Option.value !first_id ~default:id)
              ~attempt:n
          in
          Unix.sleepf (ns /. 1e9);
          if deadline_ok () then attempt (n + 1) else resp
        end
      end
    in
    attempt 1

let error_of resp = Bytes.to_string resp.Wire.resp_value

let get t ~key =
  let resp = call t ~op:Wire.Get ~key ~value:Bytes.empty in
  match resp.Wire.status with
  | Wire.Ok -> Ok (Some resp.Wire.resp_value)
  | Wire.Not_found -> Ok None
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard | Wire.Cluster_ok -> Error "wrong shard (use C4_clusterd.Routing)"

let set t ~key ~value =
  let resp = call t ~op:Wire.Set ~key ~value in
  match resp.Wire.status with
  | Wire.Ok | Wire.Not_found -> Ok ()
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard | Wire.Cluster_ok -> Error "wrong shard (use C4_clusterd.Routing)"

let delete t ~key =
  let resp = call t ~op:Wire.Delete ~key ~value:Bytes.empty in
  match resp.Wire.status with
  | Wire.Ok -> Ok true
  | Wire.Not_found -> Ok false
  | Wire.Err -> Error (error_of resp)
  | Wire.Wrong_shard | Wire.Cluster_ok -> Error "wrong shard (use C4_clusterd.Routing)"

(* One-shot CLUSTER_INFO exchange (no retry loop: the routing layer that
   calls this drives its own retries). [payload] empty = fetch the map;
   non-empty = offer a map to install if newer. *)
let cluster_info t ?(payload = Bytes.empty) () =
  let _, resp = once t ~id:None ~op:Wire.Cluster_info ~key:0 ~value:payload ~token:None in
  match resp.Wire.status with
  | Wire.Cluster_ok -> Ok resp.Wire.resp_value
  | Wire.Err -> Error (error_of resp)
  | Wire.Ok | Wire.Not_found | Wire.Wrong_shard ->
    Error ("unexpected status " ^ Wire.status_name resp.Wire.status)

let close t =
  if not (Atomic.exchange t.closed true) then
    Array.iter
      (fun slot ->
        (* Detach under the lock; kill and join outside it.
           [fail_pending] runs response handlers that may dispatch
           again and re-enter [conn_of] (which takes [s_lock]), and the
           reader thread's exit path runs [kill_conn] too — holding
           [s_lock] across either is a self-deadlock. [conn_of]
           re-checks [t.closed] under the slot lock, so nothing can
           repopulate the slot after the detach. *)
        let detached =
          Sync.with_lock slot.s_lock (fun () ->
              let c = slot.s_conn in
              slot.s_conn <- None;
              c)
        in
        match detached with
        | None -> ()
        | Some conn ->
          kill_conn conn "client closed";
          (match conn.c_reader with
          | Some r -> Thread.join r
          | None -> ()))
      t.slots
