let table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update_bytes crc b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: range outside the string";
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* read-only: the string is never written through the alias *)
let update crc s pos len = update_bytes crc (Bytes.unsafe_of_string s) pos len

let string s = update 0 s 0 (String.length s)
