(* GC-free state arena for the exact search.

   Every state the BFS ever sees lives as a packed row of int64 words
   in one flat Bigarray (64 masks per word — mask [m] is bit [m mod 64]
   of word [m / 64] of its row), with the per-state scalars the
   subsumption filters scan (cardinality, hash, packed filter
   signatures) in parallel int arrays: a struct-of-arrays
   layout, so the hot scans touch dense int arrays instead of chasing
   boxed [State.t]/fingerprint records. Dedup is an open-addressing
   hash table keyed by an xxhash64-style hash of the row words — no
   boxed keys, no per-state allocation on the probe path.

   The 64-per-word packing (vs [State]'s 62) is what makes comparator
   application word-parallel: index bits 0-5 select the bit inside a
   word and the bits above select the word, so applying a comparator
   [(i, j)] to the whole reachable set is a butterfly on the row — an
   intra-word masked shift when [j < 6], a masked cross-word shift when
   [i < 6 <= j], and whole-word moves when [6 <= i] — O(words) word
   operations per comparator instead of a per-mask loop.

   Subsumption filters run on packed SWAR signatures: the per-level
   counts (and per-channel ones/zeros counts) are packed into bitfields
   sized by [C(n, k)] with one guard bit per field, so "every count of
   A <= the matching count of B" is one subtract-and-mask per signature
   word (the carry trick: [((b | guards) - a) & guards = guards] iff no
   field borrows). The counts are accumulated directly in that packed
   form, one table add per nonzero row byte, in the same pass that
   builds each channel's implication mask (the AND of the row's masks
   with that bit set); the permutation match uses those masks to cut
   an assignment before any full image test. *)

type row = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* field k of a packed signature word: value at [shift], guard bit at
   [shift + width] *)
type layout = {
  sig_words : int;
  field_word : int array; (* k -> signature word *)
  field_shift : int array; (* k -> bit offset *)
  guards : int array; (* per signature word: OR of guard bits *)
}

type t = {
  n : int;
  wpr : int; (* int64 words per row *)
  mutable cap : int; (* allocated rows (one extra staging row) *)
  mutable len : int; (* committed states *)
  mutable words : row; (* (cap + 1) * wpr; row [len] is the staging slot *)
  mutable card : int array;
  mutable hash : int array; (* 62-bit nonnegative row hash *)
  mutable sigs : int array; (* cap * sig_stride when with_sigs *)
  mutable imps : int array; (* cap * 2 packed implication masks *)
  with_sigs : bool;
  sig_stride : int;
  lay : layout;
  mutable table : int array; (* open addressing: 0 = empty, else idx + 1 *)
  mutable mask : int; (* Array.length table - 1 *)
  (* precomputed per n *)
  sorted_row : int64 array;
  (* signature tables, built only when [with_sigs] (empty otherwise) *)
  byte_pc : int array; (* popcount of each global byte index *)
  inc_lvl : int array; (* packed level increment per (position popcount, byte) *)
  byte_hc : int array array; (* in-byte offset b -> its channels 3 + d *)
  word_hc : int array array; (* row word w -> its channels 6 + d *)
  imp_per : int; (* implication masks per packed int: 62 / n *)
  (* reusable subsumption scratch (single-domain use) *)
  sc_imp : int array;
  sc_ia : int array;
  sc_ib : int array;
  sc_tb : int array;
  sc_cand : int array;
  sc_order : int array;
  sc_pi : int array;
  (* local stats, flushed to Metrics by [record_metrics] *)
  mutable st_probes : int;
  mutable st_collisions : int;
  mutable st_resizes : int;
}

let c_states = Metrics.counter "arena.states"
let c_dups = Metrics.counter "arena.dups"
let c_probes = Metrics.counter "arena.probes"
let c_collisions = Metrics.counter "arena.collisions"
let c_resizes = Metrics.counter "arena.resizes"
let c_bytes = Metrics.counter "arena.bytes"

(* --- bit utilities on int64 words --- *)

let pop64 x =
  Bitops.popcount (Int64.to_int (Int64.logand x 0x3FFF_FFFF_FFFF_FFFFL))
  + Bitops.popcount (Int64.to_int (Int64.shift_right_logical x 62))

let debruijn64 = 0x03F79D71B4CB0A89L

let db_tab =
  let t = Array.make 64 0 in
  for i = 0 to 63 do
    t.(Int64.to_int
         (Int64.shift_right_logical
            (Int64.mul (Int64.shift_left 1L i) debruijn64)
            58)
       land 63) <- i
  done;
  t

(* index of the (single) set bit of [b] *)
let bit_index64 b =
  Array.unsafe_get db_tab
    (Int64.to_int (Int64.shift_right_logical (Int64.mul b debruijn64) 58)
     land 63)

(* A mask [m] splits as byte position [P = m lsr 3] and in-byte bit
   [i = m land 7]; the masks a row byte of value [v] holds are [8P + i]
   for its set bits [i], so their AND is [8P lor and_all.(v)]. *)
let and_all =
  Array.init 256 (fun v ->
      let acc = ref 7 in
      for i = 0 to 7 do
        if (v lsr i) land 1 = 1 then acc := !acc land i
      done;
      !acc)

(* the in-byte bits [i] with bit [c] set, c < 3: a byte [v]'s masks
   with channel [c] are those of the byte [v land low_sel.(c)] *)
let low_sel = [| 0xAA; 0xCC; 0xF0 |]

(* popcount and index of the lowest set bit (0 for 0) of a value below
   2^10 — the channel sets of the permutation match (n <= 10) *)
let pop10 = Array.init 1024 Bitops.popcount
let ctz10 =
  Array.init 1024 (fun v -> if v = 0 then 0 else Bitops.floor_log2 (v land -v))

(* Word patterns shared by every width: [intra.(i).(j)] (i < j < 6)
   selects the in-word positions with bit i set and bit j clear — the
   movers of comparator (i, j) — and [bitset.(i)] (i < 6) the in-word
   positions with bit i set. *)
let intra =
  Array.init 6 (fun i ->
      Array.init 6 (fun j ->
          if i >= j then 0L
          else begin
            let p = ref 0L in
            for b = 0 to 63 do
              if (b lsr i) land 1 = 1 && (b lsr j) land 1 = 0 then
                p := Int64.logor !p (Int64.shift_left 1L b)
            done;
            !p
          end))

let bitset =
  Array.init 6 (fun i ->
      let p = ref 0L in
      for b = 0 to 63 do
        if (b lsr i) land 1 = 1 then p := Int64.logor !p (Int64.shift_left 1L b)
      done;
      !p)

(* --- construction --- *)

let binomial n k =
  let k = min k (n - k) in
  let r = ref 1 in
  for i = 0 to k - 1 do
    r := !r * (n - i) / (i + 1)
  done;
  !r

let width_of_value v =
  let w = ref 1 in
  while v lsr !w <> 0 do
    incr w
  done;
  !w

(* pack the n + 1 count fields (field k holds values up to C(n, k))
   into as few <= 62-bit words as the guard bits allow *)
let make_layout n =
  let field_word = Array.make (n + 1) 0 in
  let field_shift = Array.make (n + 1) 0 in
  let guards = ref [] in
  let word = ref 0 and shift = ref 0 and guard = ref 0 in
  for k = 0 to n do
    let w = width_of_value (binomial n k) in
    if !shift + w + 1 > 62 then begin
      guards := !guard :: !guards;
      incr word;
      shift := 0;
      guard := 0
    end;
    field_word.(k) <- !word;
    field_shift.(k) <- !shift;
    guard := !guard lor (1 lsl (!shift + w));
    shift := !shift + w + 1
  done;
  guards := !guard :: !guards;
  { sig_words = !word + 1;
    field_word;
    field_shift;
    guards = Array.of_list (List.rev !guards) }

let check_n n =
  if n < 2 || n > 16 then
    invalid_arg "Arena.create: n must be in [2, 16] (rows are 2^n bits)"

(* [inc.(((pc lsl 8) lor v) * sig_words + w)]: word [w] of the packed
   level counts of the masks a byte of value [v] holds at a position of
   popcount [pc] (mask [8P + i] has [popcount P + popcount i] ones) *)
let increments lay ~n ~npc =
  let sw = lay.sig_words in
  let inc = Array.make (npc * 256 * sw) 0 in
  for pc = 0 to npc - 1 do
    for v = 0 to 255 do
      for i = 0 to 7 do
        let k = pc + Bitops.popcount i in
        if (v lsr i) land 1 = 1 && k <= n then begin
          let o = (((pc lsl 8) lor v) * sw) + lay.field_word.(k) in
          inc.(o) <- inc.(o) + (1 lsl lay.field_shift.(k))
        end
      done
    done
  done;
  inc

(* channels [base + d] for the set bits [d] of [x], below [n] *)
let channels_of ~n base x =
  Array.of_list
    (List.filter (fun c -> (x lsr (c - base)) land 1 = 1)
       (List.init (max 0 (n - base)) (fun d -> base + d)))

let create ?(with_sigs = true) ~n () =
  check_n n;
  if with_sigs && n > 10 then
    invalid_arg "Arena.create: signatures need n <= 10";
  let wpr = max 1 ((1 lsl n) / 64) in
  (* start small: a depth-0 search or a worker's slice commits a
     handful of rows, and [grow] / [rehash] double on demand *)
  let cap = 64 in
  let lay = make_layout n in
  (* level sig, then per channel a ones sig and a zeros sig *)
  let sig_stride = lay.sig_words * (1 + (2 * n)) in
  let sorted_row =
    let r = Array.make wpr 0L in
    for k = 0 to n do
      let m = ((1 lsl k) - 1) lsl (n - k) in
      r.(m / 64) <- Int64.logor r.(m / 64) (Int64.shift_left 1L (m land 63))
    done;
    r
  in
  let positions = if with_sigs then wpr * 8 else 0 in
  let npc = 1 + Bitops.popcount (max 0 (positions - 1)) in
  let tables f = if with_sigs then f () else [||] in
  { n;
    wpr;
    cap;
    len = 0;
    words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((cap + 1) * wpr);
    card = Array.make cap 0;
    hash = Array.make cap 0;
    sigs = tables (fun () -> Array.make (cap * sig_stride) 0);
    imps = tables (fun () -> Array.make (cap * 2) 0);
    with_sigs;
    sig_stride;
    lay;
    table = Array.make 256 0;
    mask = 255;
    sorted_row;
    byte_pc = Array.init positions Bitops.popcount;
    inc_lvl = tables (fun () -> increments lay ~n ~npc);
    byte_hc = tables (fun () -> Array.init 8 (channels_of ~n 3));
    word_hc = tables (fun () -> Array.init wpr (channels_of ~n 6));
    imp_per = 62 / n;
    sc_imp = Array.make n 0;
    sc_ia = Array.make n 0;
    sc_ib = Array.make n 0;
    sc_tb = Array.make n 0;
    sc_cand = Array.make (n * n) 0;
    sc_order = Array.init n Fun.id;
    sc_pi = Array.make n 0;
    st_probes = 0;
    st_collisions = 0;
    st_resizes = 0 }

let n t = t.n
let length t = t.len
let card t idx = t.card.(idx)

let record_metrics t =
  Metrics.add c_probes t.st_probes;
  Metrics.add c_collisions t.st_collisions;
  Metrics.add c_resizes t.st_resizes;
  Metrics.add c_bytes ((t.cap + 1) * t.wpr * 8);
  t.st_probes <- 0;
  t.st_collisions <- 0;
  t.st_resizes <- 0

let grow t =
  let cap' = t.cap * 2 in
  let words' =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((cap' + 1) * t.wpr)
  in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.words 0 ((t.cap + 1) * t.wpr))
    (Bigarray.Array1.sub words' 0 ((t.cap + 1) * t.wpr));
  t.words <- words';
  (* [per] ints per row *)
  let grow_arr ?(per = 1) a =
    let a' = Array.make (cap' * per) 0 in
    Array.blit a 0 a' 0 (t.cap * per);
    a'
  in
  t.card <- grow_arr t.card;
  t.hash <- grow_arr t.hash;
  if t.with_sigs then begin
    t.sigs <- grow_arr ~per:t.sig_stride t.sigs;
    t.imps <- grow_arr ~per:2 t.imps
  end;
  t.cap <- cap'

(* --- staging row (index [len]) --- *)

let stage_off t = t.len * t.wpr

let stage_state t st =
  if State.n st <> t.n then invalid_arg "Arena.stage_state: width mismatch";
  if t.len >= t.cap then grow t;
  let base = stage_off t in
  for w = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.words (base + w) 0L
  done;
  State.iter_masks
    (fun m ->
      let w = base + (m lsr 6) in
      Bigarray.Array1.unsafe_set t.words w
        (Int64.logor
           (Bigarray.Array1.unsafe_get t.words w)
           (Int64.shift_left 1L (m land 63))))
    st

(* apply one ascending comparator (i, j), i < j, to the staging row:
   every mask with bit i set and bit j clear moves to the mask with
   those bits exchanged; everything else stays. Butterfly by case on
   whether the affected index bits are intra-word. *)
let apply_cmp t base i j =
  let words = t.words and wpr = t.wpr in
  if j < 6 then begin
    let pat = intra.(i).(j) in
    let delta = (1 lsl j) - (1 lsl i) in
    for w = 0 to wpr - 1 do
      let x = Bigarray.Array1.unsafe_get words (base + w) in
      let mov = Int64.logand x pat in
      if mov <> 0L then
        Bigarray.Array1.unsafe_set words (base + w)
          (Int64.logor (Int64.logxor x mov) (Int64.shift_left mov delta))
    done
  end
  else if i < 6 then begin
    let pat = bitset.(i) in
    let dj = 1 lsl (j - 6) in
    let shift = 1 lsl i in
    for w = 0 to wpr - 1 do
      if w land dj = 0 then begin
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        let mov = Int64.logand x pat in
        if mov <> 0L then begin
          Bigarray.Array1.unsafe_set words (base + w) (Int64.logxor x mov);
          let w' = base + w + dj in
          Bigarray.Array1.unsafe_set words w'
            (Int64.logor
               (Bigarray.Array1.unsafe_get words w')
               (Int64.shift_right_logical mov shift))
        end
      end
    done
  end
  else begin
    let di = 1 lsl (i - 6) and dj = 1 lsl (j - 6) in
    for w = 0 to wpr - 1 do
      if w land di <> 0 && w land dj = 0 then begin
        let x = Bigarray.Array1.unsafe_get words (base + w) in
        if x <> 0L then begin
          let w' = base + w - di + dj in
          Bigarray.Array1.unsafe_set words w'
            (Int64.logor (Bigarray.Array1.unsafe_get words w') x);
          Bigarray.Array1.unsafe_set words (base + w) 0L
        end
      end
    done
  end

let row_subset t base_a base_b =
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < t.wpr do
    let a = Bigarray.Array1.unsafe_get t.words (base_a + !w) in
    let b = Bigarray.Array1.unsafe_get t.words (base_b + !w) in
    if Int64.logand a (Int64.lognot b) <> 0L then ok := false;
    incr w
  done;
  !ok

let staged_is_sorted t =
  let base = stage_off t in
  let ok = ref true in
  for w = 0 to t.wpr - 1 do
    if
      Int64.logand
        (Bigarray.Array1.unsafe_get t.words (base + w))
        (Int64.lognot t.sorted_row.(w))
      <> 0L
    then ok := false
  done;
  !ok

let staged_mem t m =
  if m < 0 || m lsr t.n <> 0 then invalid_arg "Arena.staged_mem";
  let x = Bigarray.Array1.unsafe_get t.words (stage_off t + (m lsr 6)) in
  Int64.logand x (Int64.shift_left 1L (m land 63)) <> 0L

let row_card t base =
  let c = ref 0 in
  for w = 0 to t.wpr - 1 do
    c := !c + pop64 (Bigarray.Array1.unsafe_get t.words (base + w))
  done;
  !c

(* --- hashing and open addressing --- *)

(* xxhash64-flavoured word mix: multiply-rotate accumulation over the
   row words, SplitMix64-style avalanche finish. Folded to 62 bits so
   the table index math stays on nonnegative ints. *)
let row_hash t base =
  let h = ref 0x9E3779B97F4A7C15L in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (base + w) in
    let acc = Int64.add !h (Int64.mul x 0xC2B2AE3D27D4EB4FL) in
    let acc =
      Int64.logor (Int64.shift_left acc 31) (Int64.shift_right_logical acc 33)
    in
    h := Int64.mul acc 0x9E3779B185EBCA87L
  done;
  let x = !h in
  let x = Int64.logxor x (Int64.shift_right_logical x 30) in
  let x = Int64.mul x 0xBF58476D1CE4E5B9L in
  let x = Int64.logxor x (Int64.shift_right_logical x 27) in
  let x = Int64.mul x 0x94D049BB133111EBL in
  let x = Int64.logxor x (Int64.shift_right_logical x 31) in
  Int64.to_int x land 0x3FFF_FFFF_FFFF_FFFF

let rows_equal t base_a base_b =
  let eq = ref true in
  let w = ref 0 in
  while !eq && !w < t.wpr do
    if
      Bigarray.Array1.unsafe_get t.words (base_a + !w)
      <> Bigarray.Array1.unsafe_get t.words (base_b + !w)
    then eq := false;
    incr w
  done;
  !eq

let rehash t =
  let size' = (t.mask + 1) * 2 in
  let table' = Array.make size' 0 in
  let mask' = size' - 1 in
  for idx = 0 to t.len - 1 do
    let s = ref (t.hash.(idx) land mask') in
    while table'.(!s) <> 0 do
      s := (!s + 1) land mask'
    done;
    table'.(!s) <- idx + 1
  done;
  t.table <- table';
  t.mask <- mask';
  t.st_resizes <- t.st_resizes + 1

(* --- signatures --- *)

let sig_base t idx = idx * t.sig_stride

let iter_row_masks t base f =
  for w = 0 to t.wpr - 1 do
    let x = ref (Bigarray.Array1.unsafe_get t.words (base + w)) in
    let wbase = w lsl 6 in
    while !x <> 0L do
      let b = Int64.logand !x (Int64.neg !x) in
      f (wbase + bit_index64 b);
      x := Int64.logand !x (Int64.sub !x 1L)
    done
  done

(* add the packed counts [a0] (and [a1], second word) to the signature
   at [sigs.(o ..)]; fields never carry into each other because every
   count stays within its width *)
let add_sig sigs o a0 a1 sw =
  Array.unsafe_set sigs o (Array.unsafe_get sigs o + a0);
  if sw = 2 then
    Array.unsafe_set sigs (o + 1) (Array.unsafe_get sigs (o + 1) + a1)

(* ... the packed increment at [tbl.(r ..)] *)
let add_inc sigs o tbl r sw =
  add_sig sigs o (Array.unsafe_get tbl r)
    (if sw = 2 then Array.unsafe_get tbl (r + 1) else 0)
    sw

(* One pass over the row's nonzero bytes. Each byte adds its packed
   level increment ([inc_lvl], keyed by the position's popcount) to the
   level signature and to the ones signature of every channel its
   masks all set — channels 3-5 by the byte's offset in its word,
   channels >= 6 by the word index, so those take the word's summed
   increment once per word. An in-byte channel c < 3 takes the
   increment of the sub-byte [v land low_sel.(c)]. The same pass ANDs
   the byte's masks into each such channel's implication mask. Each
   zeros signature is then [level - ones], one borrow-free subtraction
   per word since ones <= level fieldwise. *)
let compute_sigs t idx =
  let nn = t.n and sw = t.lay.sig_words in
  let rbase = idx * t.wpr and base = sig_base t idx in
  let sigs = t.sigs and imp = t.sc_imp in
  let inc_lvl = t.inc_lvl in
  let full = (1 lsl nn) - 1 in
  Array.fill sigs base t.sig_stride 0;
  Array.fill imp 0 nn full;
  let nlow = min 3 nn in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (rbase + w) in
    if x <> 0L then begin
      let acc0 = ref 0 and acc1 = ref 0 and wand = ref full in
      for b = 0 to 7 do
        let v = Int64.to_int (Int64.shift_right_logical x (8 * b)) land 0xFF in
        if v <> 0 then begin
          let p = (w lsl 3) + b in
          let pc8 = Array.unsafe_get t.byte_pc p lsl 8 in
          let r = (pc8 lor v) * sw in
          acc0 := !acc0 + Array.unsafe_get inc_lvl r;
          if sw = 2 then acc1 := !acc1 + Array.unsafe_get inc_lvl (r + 1);
          let hi = p lsl 3 in
          for c = 0 to nlow - 1 do
            let vc = v land Array.unsafe_get low_sel c in
            if vc <> 0 then begin
              add_inc sigs (base + ((1 + (2 * c)) * sw)) inc_lvl
                ((pc8 lor vc) * sw) sw;
              Array.unsafe_set imp c
                (Array.unsafe_get imp c
                land (hi lor Array.unsafe_get and_all vc))
            end
          done;
          let a = hi lor Array.unsafe_get and_all v in
          wand := !wand land a;
          let hc = Array.unsafe_get t.byte_hc b in
          for j = 0 to Array.length hc - 1 do
            let c = Array.unsafe_get hc j in
            add_inc sigs (base + ((1 + (2 * c)) * sw)) inc_lvl r sw;
            Array.unsafe_set imp c (Array.unsafe_get imp c land a)
          done
        end
      done;
      (* the word's masks all set its channels >= 6 *)
      let a0 = !acc0 and a1 = !acc1 and wand = !wand in
      add_sig sigs base a0 a1 sw;
      let hc = Array.unsafe_get t.word_hc w in
      for j = 0 to Array.length hc - 1 do
        let c = Array.unsafe_get hc j in
        add_sig sigs (base + ((1 + (2 * c)) * sw)) a0 a1 sw;
        Array.unsafe_set imp c (Array.unsafe_get imp c land wand)
      done
    end
  done;
  for c = 0 to nn - 1 do
    let o = base + ((1 + (2 * c)) * sw) in
    for k = 0 to sw - 1 do
      Array.unsafe_set sigs (o + sw + k)
        (Array.unsafe_get sigs (base + k) - Array.unsafe_get sigs (o + k))
    done
  done;
  (* pack: channel c at int [c / imp_per], field [c mod imp_per] *)
  let per = t.imp_per in
  let i0 = ref 0 and i1 = ref 0 in
  for c = nn - 1 downto 0 do
    if c < per then i0 := (!i0 lsl nn) lor Array.unsafe_get imp c
    else i1 := (!i1 lsl nn) lor Array.unsafe_get imp c
  done;
  t.imps.(2 * idx) <- !i0;
  t.imps.((2 * idx) + 1) <- !i1

(* channel [c]'s implication mask of row [idx] *)
let chan_implied t idx c =
  let hi = if c < t.imp_per then 0 else 1 in
  (t.imps.((2 * idx) + hi) lsr ((c - (hi * t.imp_per)) * t.n))
  land ((1 lsl t.n) - 1)

let implied t idx =
  if not t.with_sigs then
    invalid_arg "Arena.implied: arena built without signatures";
  Array.init t.n (chan_implied t idx)

type filters = {
  counts : Subsume.fingerprint;
  zeros : int array array;
  implied : int array;
}

let filters t idx =
  if not t.with_sigs then
    invalid_arg "Arena.filters: arena built without signatures";
  let sw = t.lay.sig_words and base = sig_base t idx in
  let decode off =
    Array.init (t.n + 1) (fun k ->
        let width = width_of_value (binomial t.n k) in
        (t.sigs.(off + t.lay.field_word.(k)) lsr t.lay.field_shift.(k))
        land ((1 lsl width) - 1))
  in
  let chan j = Array.init t.n (fun c -> decode (base + ((j + (2 * c)) * sw))) in
  { counts =
      { card = t.card.(idx); level_card = decode base; chan_ones = chan 1 };
    zeros = chan 2;
    implied = implied t idx }

(* fieldwise A <= B over the packed signatures at [oa] and [ob]: no
   field borrows in [(B | guards) - A] (the carry trick). [g1] is the
   second word's guards, 0 when signatures take one word (n <= 9). *)
let[@inline] sig_le sigs g0 g1 oa ob =
  ((Array.unsafe_get sigs ob lor g0) - Array.unsafe_get sigs oa) land g0 = g0
  && (g1 = 0
     || ((Array.unsafe_get sigs (ob + 1) lor g1)
        - Array.unsafe_get sigs (oa + 1))
        land g1
        = g1)

(* --- dedup insert --- *)

let commit t =
  let base = stage_off t in
  let h = row_hash t base in
  let slot = ref (h land t.mask) in
  let found = ref (-1) in
  t.st_probes <- t.st_probes + 1;
  let continue = ref true in
  while !continue do
    let e = Array.unsafe_get t.table !slot in
    if e = 0 then continue := false
    else begin
      let idx = e - 1 in
      if t.hash.(idx) = h && rows_equal t (idx * t.wpr) base then begin
        found := idx;
        continue := false
      end
      else begin
        t.st_collisions <- t.st_collisions + 1;
        slot := (!slot + 1) land t.mask
      end
    end
  done;
  if !found >= 0 then begin
    Metrics.incr c_dups;
    `Dup !found
  end
  else begin
    let idx = t.len in
    t.table.(!slot) <- idx + 1;
    t.hash.(idx) <- h;
    t.card.(idx) <- row_card t base;
    t.len <- idx + 1;
    if t.with_sigs then compute_sigs t idx;
    (* keep the load factor <= 1/2 *)
    if 2 * t.len > t.mask then rehash t;
    Metrics.incr c_states;
    `Fresh idx
  end

(* truncate back to a previously observed length: the committed prefix
   is immutable, so dropping a suffix only needs the table rebuilt *)
let truncate t len =
  if len < 0 || len > t.len then invalid_arg "Arena.truncate";
  if len < t.len then begin
    t.len <- len;
    Array.fill t.table 0 (Array.length t.table) 0;
    for idx = 0 to len - 1 do
      let s = ref (t.hash.(idx) land t.mask) in
      while t.table.(!s) <> 0 do
        s := (!s + 1) land t.mask
      done;
      t.table.(!s) <- idx + 1
    done
  end

(* --- conversions --- *)

let state_of_base t base =
  let masks = ref [] in
  iter_row_masks t base (fun m -> masks := m :: !masks);
  State.of_masks ~n:t.n (List.rev !masks)

let to_state t idx = state_of_base t (idx * t.wpr)

(* --- row codec (layout in the mli): the words as they are --- *)

let encode_rows t buf rows =
  List.iter
    (fun v -> Buffer.add_int32_le buf (Int32.of_int v))
    [ 1; t.n; List.length rows ];
  List.iter
    (fun idx ->
      if idx < 0 || idx >= t.len then invalid_arg "Arena.encode_rows";
      for w = idx * t.wpr to ((idx + 1) * t.wpr) - 1 do
        Buffer.add_int64_le buf (Bigarray.Array1.get t.words w)
      done)
    rows

let decode_rows t s ~pos f =
  let u32 o = Int32.to_int (String.get_int32_le s (pos + o)) land 0xFFFF_FFFF in
  (* below n = 6 a row is one partial word: its bits >= 2^n are no masks *)
  let stray = if t.n >= 6 then 0L else Int64.shift_left (-1L) (1 lsl t.n) in
  if pos < 0 || pos > String.length s - 12 || u32 0 <> 1 || u32 4 <> t.n then
    Error "row block: bad header"
  else if u32 8 > (String.length s - pos - 12) / (8 * t.wpr) then
    Error "row block: truncated"
  else
    let rec go k o =
      if k = u32 8 then Ok o
      else if Int64.logand (String.get_int64_le s o) stray <> 0L then
        Error "row block: mask out of range"
      else begin
        if t.len >= t.cap then grow t;
        for w = 0 to t.wpr - 1 do
          let x = String.get_int64_le s (o + (8 * w)) in
          Bigarray.Array1.set t.words (stage_off t + w) x
        done;
        f k;
        go (k + 1) (o + (8 * t.wpr))
      end
    in
    go 0 (pos + 12)

(* --- subsumption ---

   Boolean-identical to [Subsume.subsumes] on the corresponding
   states: the card / level / channel filters are the same pointwise
   <= tests (packed), the backtracking explores the same assignment
   space (possibly in a different order) less the branches the
   implication masks rule out, and the final check is the same
   mask-image inclusion. The extra checks only refute what the
   backtracking would refute anyway: a channel of B missing from every
   candidate set cannot be covered by the injection, and an assignment
   that breaks an implication maps some mask of A outside B. *)

exception No

(* Swap index bits [i < j] of the 2^n positions of the row at [base]:
   the same butterfly structure as [apply_cmp], but a swap instead of
   an OR-move. Positions with bits (i, j) = (1, 0) exchange with their
   (0, 1) partner at distance [2^j - 2^i]; (0, 0) and (1, 1) are
   fixed. *)
let transpose_row t base i j =
  if j < 6 then begin
    (* delta-swap within each word; [intra.(i).(j)] selects the lower
       position of every swapped pair *)
    let pat = intra.(i).(j) in
    let delta = (1 lsl j) - (1 lsl i) in
    for w = 0 to t.wpr - 1 do
      let x = Bigarray.Array1.unsafe_get t.words (base + w) in
      let d =
        Int64.logand (Int64.logxor x (Int64.shift_right_logical x delta)) pat
      in
      Bigarray.Array1.unsafe_set t.words (base + w)
        (Int64.logxor (Int64.logxor x d) (Int64.shift_left d delta))
    done
  end
  else if i < 6 then begin
    (* word pair (w, w + 2^(j-6)): bit-i=1 positions of the low word
       exchange with bit-i=0 positions of the high word, 2^i apart *)
    let bi = bitset.(i) and sh = 1 lsl i in
    let nbi = Int64.lognot bitset.(i) in
    let dj = 1 lsl (j - 6) in
    for w = 0 to t.wpr - 1 do
      if (w lsr (j - 6)) land 1 = 0 then begin
        let a = Bigarray.Array1.unsafe_get t.words (base + w) in
        let b = Bigarray.Array1.unsafe_get t.words (base + w + dj) in
        Bigarray.Array1.unsafe_set t.words (base + w)
          (Int64.logor (Int64.logand a nbi)
             (Int64.shift_left (Int64.logand b nbi) sh));
        Bigarray.Array1.unsafe_set t.words (base + w + dj)
          (Int64.logor (Int64.logand b bi)
             (Int64.shift_right_logical (Int64.logand a bi) sh))
      end
    done
  end
  else begin
    (* whole-word swap w <-> w - 2^(i-6) + 2^(j-6) *)
    let di = 1 lsl (i - 6) and dj = 1 lsl (j - 6) in
    for w = 0 to t.wpr - 1 do
      if (w lsr (i - 6)) land 1 = 1 && (w lsr (j - 6)) land 1 = 0 then begin
        let w' = w - di + dj in
        let a = Bigarray.Array1.unsafe_get t.words (base + w) in
        Bigarray.Array1.unsafe_set t.words (base + w)
          (Bigarray.Array1.unsafe_get t.words (base + w'));
        Bigarray.Array1.unsafe_set t.words (base + w') a
      end
    done
  end

(* Copy row [src] into the staging slot and permute its positions by
   the channel permutation [pi] (bit [pi.(c)] of an image index = bit
   [c] of the source index), as a product of index-bit transpositions:
   each cycle (c1 c2 ... cl) of [pi] is T(c1,c2) then T(c1,c3) ...
   T(c1,cl) applied to the row in that order. Word-parallel — about
   (n - 1) * wpr word ops for a worst-case permutation, versus a
   per-bit loop over every mask of the row. Clobbers the staging row. *)
let permute_row_into_staging t src pi =
  let dst = stage_off t in
  for w = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.words (dst + w)
      (Bigarray.Array1.unsafe_get t.words (src + w))
  done;
  let visited = ref 0 in
  for c = 0 to t.n - 1 do
    if (!visited lsr c) land 1 = 0 then begin
      visited := !visited lor (1 lsl c);
      let d = ref pi.(c) in
      while !d <> c do
        visited := !visited lor (1 lsl !d);
        transpose_row t dst (min c !d) (max c !d);
        d := pi.(!d)
      done
    end
  done

(* --- search moves --- *)

type stage = {
  perm : int array option;
  cmps : (int * int) list;
  swaps : (int * int) list;
}

let comparators cmps = { perm = None; cmps; swaps = [] }

(* The three phases of a stage, each a butterfly on the staging row:
   the wire permutation permutes index bits, a comparator ORs its
   movers across, a swap exchanges the (1, 0) and (0, 1) positions of
   its two index bits. *)
let stage_child t ~parent st =
  if t.len >= t.cap then grow t;
  let src = parent * t.wpr and dst = stage_off t in
  (match st.perm with
  | Some pi -> permute_row_into_staging t src pi
  | None ->
      for w = 0 to t.wpr - 1 do
        Bigarray.Array1.unsafe_set t.words (dst + w)
          (Bigarray.Array1.unsafe_get t.words (src + w))
      done);
  List.iter (fun (i, j) -> apply_cmp t dst i j) st.cmps;
  List.iter (fun (i, j) -> transpose_row t dst (min i j) (max i j)) st.swaps

let subsumes t a b =
  t.card.(a) <= t.card.(b)
  &&
  let sigs = t.sigs and sw = t.lay.sig_words in
  let g0 = t.lay.guards.(0) and g1 = if sw = 2 then t.lay.guards.(1) else 0 in
  let sa = sig_base t a and sb = sig_base t b in
  sig_le sigs g0 g1 sa sb
  && (row_subset t (a * t.wpr) (b * t.wpr)
     ||
     let nn = t.n in
     let cand = t.sc_cand in
     let full = (1 lsl nn) - 1 in
     match
       let union = ref 0 in
       for c = 0 to nn - 1 do
         let oa = sa + ((1 + (2 * c)) * sw) in
         let m = ref 0 in
         for c' = 0 to nn - 1 do
           let ob = sb + ((1 + (2 * c')) * sw) in
           (* ones, then zeros *)
           if sig_le sigs g0 g1 oa ob && sig_le sigs g0 g1 (oa + sw) (ob + sw)
           then m := !m lor (1 lsl c')
         done;
         if !m = 0 then raise No;
         cand.(c) <- !m;
         union := !union lor !m
       done;
       if !union <> full then raise No
     with
     | exception No -> false
     | () ->
         let order = t.sc_order and pi = t.sc_pi in
         let ia = t.sc_ia and ib = t.sc_ib and tb = t.sc_tb in
         for c = 0 to nn - 1 do
           order.(c) <- c;
           ia.(c) <- chan_implied t a c;
           ib.(c) <- chan_implied t b c
         done;
         (* tb.(c') = the channels d' of B with c' in ib.(d') *)
         for c' = 0 to nn - 1 do
           let m = ref 0 in
           for d' = 0 to nn - 1 do
             if (ib.(d') lsr c') land 1 = 1 then m := !m lor (1 lsl d')
           done;
           tb.(c') <- !m
         done;
         (* the channel with the fewest candidates goes first; later
            depths pick theirs as they forward-check (the order only
            steers the backtracking, the boolean result is
            order-independent) *)
         let first = ref 0 in
         for c = 1 to nn - 1 do
           if pop10.(cand.(c)) < pop10.(cand.(!first)) then first := c
         done;
         order.(!first) <- 0;
         order.(0) <- !first;
         let ba = a * t.wpr and bb = b * t.wpr in
         (* channel [order.(i)] picks its image from [cand.(i * nn + c)],
            the depth-i candidate sets; [used] holds the images taken *)
         let rec assign i used =
           if i = nn then begin
             (* image inclusion: every mask of A lands in B — permute
                the whole row A by pi and do one word-parallel subset
                scan (uses the staging slot as scratch, which is free
                between [commit]s) *)
             permute_row_into_staging t ba pi;
             row_subset t (stage_off t) bb
           end
           else begin
             let c = Array.unsafe_get order i in
             let here = i * nn and next = (i + 1) * nn in
             let avail = ref (Array.unsafe_get cand (here + c) land lnot used) in
             let ok = ref false in
             while (not !ok) && !avail <> 0 do
               let c' = Array.unsafe_get ctz10 !avail in
               let bit = 1 lsl c' in
               let used' = used lor bit in
               (* forward check: x -> x' stays a candidate only if
                  "every mask of B with x' has c'" implies "every mask
                  of A with x has c", and the same with the two pairs
                  exchanged — else a mask of A with x and without c
                  would land on one of B with x' and without c'. The
                  unassigned channel left with the fewest candidates
                  goes next. *)
               let ic = Array.unsafe_get ia c
               and tc = Array.unsafe_get tb c'
               and jc = Array.unsafe_get ib c' in
               let live = ref true and k = ref (i + 1) in
               let best = ref (i + 1) and best_pop = ref nn in
               while !live && !k < nn do
                 let x = Array.unsafe_get order !k in
                 let m = Array.unsafe_get cand (here + x) land lnot used' in
                 let m =
                   if (Array.unsafe_get ia x lsr c) land 1 = 0 then
                     m land lnot tc
                   else m
                 in
                 let m = if (ic lsr x) land 1 = 0 then m land lnot jc else m in
                 Array.unsafe_set cand (next + x) m;
                 let p = Array.unsafe_get pop10 m in
                 if p = 0 then live := false
                 else if p < !best_pop then begin
                   best_pop := p;
                   best := !k
                 end;
                 incr k
               done;
               if !live then begin
                 if !best < nn then begin
                   let x = Array.unsafe_get order !best in
                   Array.unsafe_set order !best (Array.unsafe_get order (i + 1));
                   Array.unsafe_set order (i + 1) x
                 end;
                 pi.(c) <- c';
                 if assign (i + 1) used' then ok := true
               end;
               avail := !avail land lnot bit
             done;
             !ok
           end
         in
         assign 0 0)
