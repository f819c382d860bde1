(* Output checking for the serving benchmark.

   Per key the checker keeps the highest write number issued, whether a
   DELETE was ever issued, and the candidate set: the writes that may
   still be the key's final state. Issuing a write drops every candidate
   already acknowledged (the new write starts after their acks, so it
   linearizes after them) and adds itself; writes still in flight stay,
   since their order against the new one is unknown. After a quiescent
   point the stored state must be one of the candidates — the last
   acknowledged value, or [Not_found] after an acknowledged DELETE. *)

module Wire = C4_net.Wire

type cand = { wn : int; del : bool; mutable acked : bool }

type t = {
  issued : int array;  (* highest write number issued, per key *)
  deleted : Bytes.t;  (* '\001' once a DELETE was issued for the key *)
  cands : cand list array;
  mutable violations : int;
  mutable first : string list;  (* the first few violation messages *)
}

let preloaded = { wn = 0; del = false; acked = true }

let create ~keys =
  {
    issued = Array.make keys 0;
    deleted = Bytes.make keys '\000';
    cands = Array.make keys [ preloaded ];
    violations = 0;
    first = [];
  }

let violations t = t.violations
let messages t = List.rev t.first

let violation t fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <- t.violations + 1;
      if t.violations <= 5 then t.first <- msg :: t.first;
      false)
    fmt

let issue_write t ~key ~del =
  let wn = t.issued.(key) + 1 in
  t.issued.(key) <- wn;
  if del then Bytes.set t.deleted key '\001';
  let c = { wn; del; acked = false } in
  t.cands.(key) <- c :: List.filter (fun c -> not c.acked) t.cands.(key);
  c

let status_name = function
  | Wire.Ok -> "Ok"
  | Wire.Not_found -> "Not_found"
  | Wire.Err -> "Err"
  | Wire.Wrong_shard -> "Wrong_shard"
  | Wire.Cluster_ok -> "Cluster_ok"

let ack_write t ~key c (status : Wire.status) =
  c.acked <- true;
  match (status, c.del) with
  | Wire.Ok, false | (Wire.Ok | Wire.Not_found), true -> true
  | _ ->
    violation t "key %d: write #%d answered %s" key c.wn (status_name status)

let ack_load t ~key (status : Wire.status) =
  status = Wire.Ok
  || violation t "key %d: preload SET answered %s" key (status_name status)

(* A stamped value for [key] whose write number was already issued. *)
let check_value t ~key v =
  match Workload.read_stamp v with
  | None ->
    violation t "key %d: %d-byte value without an intact stamp" key
      (Bytes.length v)
  | Some (k, _) when k <> key ->
    violation t "key %d: GET returned key %d's value" key k
  | Some (_, wn) when wn > t.issued.(key) ->
    violation t "key %d: write #%d was never issued" key wn
  | Some _ -> true

let check_get t ~key (status : Wire.status) v =
  match status with
  | Wire.Ok -> check_value t ~key v
  | Wire.Not_found ->
    Bytes.get t.deleted key <> '\000'
    || violation t "key %d: Not_found but never deleted" key
  | s -> violation t "key %d: GET answered %s" key (status_name s)

let check_final t ~key (status : Wire.status) v =
  let cands = t.cands.(key) in
  match status with
  | Wire.Ok -> (
    check_value t ~key v
    &&
    match Workload.read_stamp v with
    | Some (_, wn) when List.exists (fun c -> (not c.del) && c.wn = wn) cands
      ->
      true
    | _ -> violation t "key %d: read-back is not the last acknowledged write" key)
  | Wire.Not_found ->
    List.exists (fun c -> c.del) cands
    || violation t "key %d: read-back Not_found without a final DELETE" key
  | s -> violation t "key %d: read-back answered %s" key (status_name s)

(* The [n] most-written keys (ties by key), for the read-back. *)
let hot_keys t ~n =
  let written = ref [] in
  Array.iteri (fun k wn -> if wn > 0 then written := (wn, k) :: !written) t.issued;
  let a = Array.of_list !written in
  Array.sort (fun (w1, k1) (w2, k2) -> if w1 <> w2 then compare w2 w1 else compare k1 k2) a;
  Array.to_list (Array.sub a 0 (min n (Array.length a))) |> List.map snd
