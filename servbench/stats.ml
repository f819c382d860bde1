(* Sample statistics over recorded values: exact order statistics (no
   histogram buckets, so a median keeps every digit it was measured
   with). *)

external now_ns : unit -> (int[@untagged])
  = "servbench_now_ns" "servbench_now_ns_unboxed"
[@@noalloc]

(* A growable float array. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n
let to_array s = Array.sub s.a 0 s.n

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks; 0 when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The highest of p99.9, p99, p90 that still has at least ten samples
   beyond it: the tail percentile a sample of this size can support. *)
let supported_tail n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0)
    [ 0.999; 0.99; 0.9; 0.5 ]
  |> Option.value ~default:0.5

(* Theil–Sen slope of the points (xs.(i), ys.(i)): the median of the
   slopes between every pair whose x differ by more than [min_dx]; 0
   when no pair does. A third of the points can be outliers without
   moving it far. *)
let theil_sen_slope ~min_dx xs ys =
  let slopes = samples () in
  let n = Array.length xs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dx = xs.(j) -. xs.(i) in
      if Float.abs dx > min_dx then add slopes ((ys.(j) -. ys.(i)) /. dx)
    done
  done;
  if count slopes = 0 then 0.0 else median (to_array slopes)
