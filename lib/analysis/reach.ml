type t = { n : int; set : Bytes.t }

let max_wires = 16

let n t = t.n

let all n =
  if n < 1 || n > max_wires then
    invalid_arg (Printf.sprintf "Reach.all: n = %d not in [1, %d]" n max_wires);
  { n; set = Bytes.make (1 lsl n) '\001' }

let mem t m = Bytes.unsafe_get t.set m <> '\000'

let cardinal t =
  let c = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr c) t.set;
  !c

let iter f t =
  for m = 0 to Bytes.length t.set - 1 do
    if Bytes.unsafe_get t.set m <> '\000' then f m
  done

let apply_gate t g =
  match g with
  | Gate.Compare { lo; hi } ->
      let set = Bytes.make (Bytes.length t.set) '\000' in
      iter
        (fun m ->
          let m' =
            if m land (1 lsl lo) <> 0 && m land (1 lsl hi) = 0 then
              m lxor ((1 lsl lo) lor (1 lsl hi))
            else m
          in
          Bytes.unsafe_set set m' '\001')
        t;
      { t with set }
  | Gate.Exchange { a; b } ->
      let set = Bytes.make (Bytes.length t.set) '\000' in
      iter
        (fun m ->
          let ba = (m lsr a) land 1 and bb = (m lsr b) land 1 in
          let m' =
            if ba = bb then m else m lxor ((1 lsl a) lor (1 lsl b))
          in
          Bytes.unsafe_set set m' '\001')
        t;
      { t with set }

let apply_perm t p =
  if Perm.n p <> t.n then invalid_arg "Reach.apply_perm: size mismatch";
  let img = Perm.to_array p in
  let set = Bytes.make (Bytes.length t.set) '\000' in
  iter
    (fun m ->
      let m' = ref 0 in
      for w = 0 to t.n - 1 do
        if m land (1 lsl w) <> 0 then m' := !m' lor (1 lsl img.(w))
      done;
      Bytes.unsafe_set set !m' '\001')
    t;
  { t with set }

let is_sorted_mask ~n m =
  let k = Bitops.popcount m in
  m = ((1 lsl k) - 1) lsl (n - k)

let find_unsorted t =
  let found = ref None in
  (try
     iter
       (fun m ->
         if not (is_sorted_mask ~n:t.n m) then begin
           found := Some m;
           raise Exit
         end)
       t
   with Exit -> ());
  !found

let bits_always_equal t a b =
  let ok = ref true in
  (try
     iter
       (fun m ->
         if ((m lsr a) land 1) <> ((m lsr b) land 1) then begin
           ok := false;
           raise Exit
         end)
       t
   with Exit -> ());
  !ok

let gate_dead t g =
  match g with
  | Gate.Compare { lo; hi } ->
      (* fires iff some reachable vector has 1 on lo and 0 on hi *)
      let fires = ref false in
      (try
         iter
           (fun m ->
             if m land (1 lsl lo) <> 0 && m land (1 lsl hi) = 0 then begin
               fires := true;
               raise Exit
             end)
           t
       with Exit -> ());
      not !fires
  | Gate.Exchange { a; b } -> bits_always_equal t a b

let gate_redundant t g =
  match g with
  | Gate.Compare { lo; hi } -> bits_always_equal t lo hi
  | Gate.Exchange { a; b } -> bits_always_equal t a b
