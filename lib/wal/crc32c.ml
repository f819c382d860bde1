(* Built eagerly at module initialisation: the table is read by every
   appending worker domain, and two domains forcing one [lazy] at once
   makes one of them raise [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let digest b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32c.digest";
  let tbl = table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := tbl.((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
