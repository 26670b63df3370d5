type fingerprint = {
  card : int;
  level_card : int array;
  chan_ones : int array array;
}

let fingerprint st =
  let n = State.n st in
  let level_card = Array.make (n + 1) 0 in
  let chan_ones = Array.make_matrix n (n + 1) 0 in
  let card = ref 0 in
  State.iter_masks
    (fun m ->
      let k = Bitops.popcount m in
      incr card;
      level_card.(k) <- level_card.(k) + 1;
      let w = ref m in
      while !w <> 0 do
        let c = Bitops.floor_log2 (!w land - !w) in
        chan_ones.(c).(k) <- chan_ones.(c).(k) + 1;
        w := !w land (!w - 1)
      done)
    st;
  { card = !card; level_card; chan_ones }

let level_cards_le fa fb =
  let ok = ref true in
  Array.iteri (fun k a -> if a > fb.level_card.(k) then ok := false) fa.level_card;
  !ok

(* Channel c of A may map to c' of B only if at every level B has at
   least as many vectors with the bit set, and at least as many with it
   clear (the injection preserves levels and the mapped bit). *)
let channel_ok fa fb c c' =
  let levels = Array.length fa.level_card in
  let ok = ref true in
  for k = 0 to levels - 1 do
    if
      fa.chan_ones.(c).(k) > fb.chan_ones.(c').(k)
      || fa.level_card.(k) - fa.chan_ones.(c).(k)
         > fb.level_card.(k) - fb.chan_ones.(c').(k)
    then ok := false
  done;
  !ok

let channel_candidates fa fb =
  let n = Array.length fa.chan_ones in
  Array.init n (fun c ->
      List.filter (channel_ok fa fb c) (List.init n Fun.id))

let permute_mask pi m =
  let img = ref 0 in
  let w = ref m in
  while !w <> 0 do
    let c = Bitops.floor_log2 (!w land - !w) in
    img := !img lor (1 lsl pi.(c));
    w := !w land (!w - 1)
  done;
  !img

(* The plain specification the arena's subsumption test is checked
   against: the identity case, the count filters, then a backtracking
   match (most constrained channel first) whose every complete
   assignment is tested mask by mask. Hands back the witnessing wire
   permutation so a certificate can cite it. *)
let subsumes_perm (sa, fa) (sb, fb) =
  if State.n sa <> State.n sb then
    invalid_arg "Subsume: states of different widths";
  let n = State.n sa in
  if State.subset sa sb then Some (Array.init n Fun.id)
  else if not (fa.card <= fb.card && level_cards_le fa fb) then None
  else
    let cand = channel_candidates fa fb in
    if not (Array.for_all (fun l -> l <> []) cand) then None
    else begin
      let order = Array.init n Fun.id in
      Array.sort
        (fun c c' -> compare (List.length cand.(c)) (List.length cand.(c')))
        order;
      let pi = Array.make n (-1) in
      let used = Array.make n false in
      let rec assign i =
        if i = n then
          State.for_all_masks (fun m -> State.mem sb (permute_mask pi m)) sa
        else
          let c = order.(i) in
          List.exists
            (fun c' ->
              (not used.(c'))
              && begin
                   pi.(c) <- c';
                   used.(c') <- true;
                   let r = assign (i + 1) in
                   used.(c') <- false;
                   r
                 end)
            cand.(c)
      in
      if assign 0 then Some pi else None
    end

let subsumes a b = Option.is_some (subsumes_perm a b)
let subsumes_states a b = subsumes (a, fingerprint a) (b, fingerprint b)

(* --- canonical wire-permutation form --- *)

(* Channels are grouped into classes by their per-level ones histogram
   (the [chan_ones] row). The row is permutation-covariant — relabel
   the state by [pi] and channel [pi c] inherits channel [c]'s row —
   so the class partition, the class sizes and the lexicographic order
   of class signatures are all isomorphism-invariant. The canonical
   form is the lexicographically smallest image of the mask set over
   the permutations that map each class onto its block of target
   positions (classes ordered by signature): for two isomorphic
   states those candidate image sets coincide, so the minima are equal
   (completeness), and any canonical form is an image of the state
   under a concrete permutation, so equal canonical forms imply
   isomorphism (soundness).

   The candidate count is the product of class factorials —
   exponential for highly symmetric states — so the enumeration is
   capped, scaled down for large states so the total work stays
   bounded. Beyond the cap each class keeps its members in channel
   order: still deterministic and sound (the result remains a genuine
   image), merely no longer guaranteed equal across isomorphs. The
   cap predicate itself only reads isomorphism-invariant quantities,
   so two isomorphic states always take the same branch. *)

let canonical_images_cap = 40_320 (* 8! *)

let sorted_image pi masks =
  let img = Array.map (permute_mask pi) masks in
  Array.sort compare img;
  img

let canonical_masks st =
  let n = State.n st in
  let fp = fingerprint st in
  let order = Array.init n Fun.id in
  (* order channels by signature; ties broken by channel index so the
     capped fallback is deterministic *)
  Array.sort
    (fun c d ->
      match compare fp.chan_ones.(c) fp.chan_ones.(d) with
      | 0 -> compare c d
      | r -> r)
    order;
  (* classes: runs of equal signature, as (start, members) in target
     position order *)
  let classes = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while
      !j < n && fp.chan_ones.(order.(!i)) = fp.chan_ones.(order.(!j))
    do
      incr j
    done;
    classes := (!i, Array.sub order !i (!j - !i)) :: !classes;
    i := !j
  done;
  let classes = List.rev !classes in
  let masks = Array.of_list (State.masks st) in
  let fact k = let r = ref 1 in for v = 2 to k do r := !r * v done; !r in
  let images =
    List.fold_left (fun acc (_, ms) -> acc * fact (Array.length ms)) 1 classes
  in
  let cap =
    min canonical_images_cap (max 24 (2_000_000 / (Array.length masks + 1)))
  in
  let pi = Array.make n (-1) in
  List.iter
    (fun (start, members) ->
      Array.iteri (fun k c -> pi.(c) <- start + k) members)
    classes;
  if images <= 1 || images > cap then sorted_image pi masks
  else begin
    (* enumerate every block-respecting permutation: for each class,
       all arrangements of its members over its positions *)
    let best = ref (sorted_image pi masks) in
    let rec arrange = function
      | [] ->
          let img = sorted_image pi masks in
          if compare img !best < 0 then best := img
      | (start, members) :: rest ->
          let k = Array.length members in
          let used = Array.make k false in
          let rec place slot =
            if slot = k then arrange rest
            else
              for m = 0 to k - 1 do
                if not used.(m) then begin
                  used.(m) <- true;
                  pi.(members.(m)) <- start + slot;
                  place (slot + 1);
                  used.(m) <- false
                end
              done
          in
          place 0
    in
    arrange classes;
    !best
  end

(* SplitMix64 finalizer: full 64-bit avalanche, so distinct canonical
   forms scatter over the whole int64 range. *)
let mix64 h =
  let open Int64 in
  let h = logxor h (shift_right_logical h 30) in
  let h = mul h 0xBF58476D1CE4E5B9L in
  let h = logxor h (shift_right_logical h 27) in
  let h = mul h 0x94D049BB133111EBL in
  logxor h (shift_right_logical h 31)

let reachable_state nw =
  let n = Network.wires nw in
  if n < 2 || n > 16 then
    invalid_arg "Subsume.canonical_hash: wires must be in [2, 16]";
  let c = Cache.compile nw in
  let total = 1 lsl n in
  let reach = Array.make total false in
  let t = ref 0 in
  while !t < total do
    let m = min Bitslice.lanes (total - !t) in
    let lo = !t in
    let out = Bitslice.eval_masks c (Array.init m (fun j -> lo + j)) in
    Array.iter (fun o -> reach.(o) <- true) out;
    t := !t + m
  done;
  let masks = ref [] in
  for m = total - 1 downto 0 do
    if reach.(m) then masks := m :: !masks
  done;
  State.of_masks ~n !masks

let canonical_key nw =
  let st = reachable_state nw in
  let canon = canonical_masks st in
  let b = Buffer.create (8 + (Array.length canon * 5)) in
  Buffer.add_string b (string_of_int (State.n st));
  Array.iter
    (fun m ->
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int m))
    canon;
  Buffer.contents b

let canonical_hash nw =
  let st = reachable_state nw in
  let canon = canonical_masks st in
  let h = ref (mix64 (Int64.of_int ((State.n st * 0x9E3779B9) + 1))) in
  Array.iter
    (fun m ->
      h :=
        mix64
          (Int64.add
             (Int64.mul !h 0x100000001B3L)
             (Int64.of_int (m + 1))))
    canon;
  !h
