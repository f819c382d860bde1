(* The three serving workloads and their request streams.

   Every SET value is 512 B and carries its key and a per-key write
   number at both ends (the "stamp"), so any GET answer can be checked
   for key identity, length and tearing without a shadow copy of the
   store. *)

module Rng = C4_dsim.Rng
module Zipf = C4_workload.Zipf

type spec = {
  name : string;
  keys : int;
  write_frac : float;
  delete_frac : float;  (** share of writes issued as DELETE *)
  theta : float option;  (** Zipf gamma; [None] = uniform keys *)
  wal : bool;  (** serve with --wal-dir <fresh> --fsync-policy window *)
}

let value_len = 512

let skew_rw =
  {
    name = "skew-rw";
    keys = 100_000;
    write_frac = 0.5;
    delete_frac = 0.05;
    theta = Some 0.99;
    wal = false;
  }

let uniform_read =
  {
    name = "uniform-read";
    keys = 400_000;
    write_frac = 0.05;
    delete_frac = 0.05;
    theta = None;
    wal = false;
  }

let skew_rw_wal = { skew_rw with name = "skew-rw-wal"; wal = true }
let all = [ skew_rw; uniform_read; skew_rw_wal ]
let find name = List.find_opt (fun s -> s.name = name) all

(* Self-test size: same mix, a key space small enough to preload in a
   blink. *)
let smoke spec = { spec with keys = spec.keys / 100 }

(* [Load] is a preload SET (write number 0, outside the checker's
   history); [Final] is a quiescent read-back GET, checked against the
   last acknowledged write instead of the in-flight rules. *)
type op = Get | Set | Del | Load | Final

let wire_op = function
  | Get | Final -> C4_net.Wire.Get
  | Set | Load -> C4_net.Wire.Set
  | Del -> C4_net.Wire.Delete

type req = { op : op; key : int }

(* The measured request stream: a pure function of (spec, seed). The
   preload is not part of it, so every seed runs against the same
   initial store. *)
type stream = { spec : spec; rng : Rng.t; zipf : Zipf.t option }

let stream spec ~seed =
  let rng = Rng.create seed in
  let zipf =
    Option.map
      (fun theta ->
        Zipf.create ~method_:`Alias ~n:spec.keys ~theta (Rng.split rng))
      spec.theta
  in
  { spec; rng; zipf }

let next st =
  let key =
    match st.zipf with
    | Some z -> Zipf.sample z
    | None -> Rng.int st.rng st.spec.keys
  in
  let op =
    if Rng.float st.rng < st.spec.write_frac then
      if Rng.float st.rng < st.spec.delete_frac then Del else Set
    else Get
  in
  { op; key }

let stamp ~key ~wn =
  let b = Bytes.make value_len 'v' in
  let k = Int64.of_int key and w = Int64.of_int wn in
  Bytes.set_int64_le b 0 k;
  Bytes.set_int64_le b 8 w;
  Bytes.set_int64_le b (value_len - 16) k;
  Bytes.set_int64_le b (value_len - 8) w;
  b

(* [Some (key, wn)] when [b] is a whole, untorn stamped value. *)
let read_stamp b =
  if Bytes.length b <> value_len then None
  else
    let k = Bytes.get_int64_le b 0 and w = Bytes.get_int64_le b 8 in
    if
      Int64.equal k (Bytes.get_int64_le b (value_len - 16))
      && Int64.equal w (Bytes.get_int64_le b (value_len - 8))
    then Some (Int64.to_int k, Int64.to_int w)
    else None
