(* GC-free state arena for the exact search.

   Every state the BFS ever sees lives as a packed row of int64 words
   in one flat Bigarray (64 masks per word — mask [m] is bit [m mod 64]
   of word [m / 64] of its row), with the per-state scalars the
   subsumption filters scan (cardinality, BFS level, hash, packed
   filter signatures) in parallel int arrays: a struct-of-arrays
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
   field borrows). *)

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
  mutable level : int array;
  mutable hash : int array; (* 62-bit nonnegative row hash *)
  mutable sigs : int array; (* cap * sig_stride when with_sigs *)
  with_sigs : bool;
  sig_stride : int;
  lay : layout;
  mutable table : int array; (* open addressing: 0 = empty, else idx + 1 *)
  mutable mask : int; (* Array.length table - 1 *)
  (* precomputed per n *)
  sorted_row : int64 array;
  (* signature tables, built only when [with_sigs] (empty otherwise).
     Row patterns for the signature counts: level k's masks at
     [k * wpr], channel (c, k)'s at [(n + 1 + c * (n + 1) + k) * wpr] —
     a count is one AND+popcount per row word instead of a loop over
     the masks *)
  count_pat : row;
  byte_pc : int array; (* popcount of each global byte index *)
  byte_hc : int array array; (* per byte position: its high channels 3+d *)
  (* packed-count scratch (n <= 10 fast path): index = popcount of the
     byte position, 4 x 8-bit fields = counts by low-3-bit popcount *)
  sc_accl : int array;
  sc_accc : int array array;
  (* reusable subsumption scratch (single-domain use) *)
  sc_lvl : int array;
  sc_chan : int array array;
  sc_zeros : int array;
  sc_cand : int array;
  sc_order : int array;
  sc_opc : int array;
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

(* Byte tables for the packed signature counts. A mask [m] splits as
   byte position [P = m lsr 3] and in-byte bit [i = m land 7], with
   [popcount m = popcount P + popcount i]. For a row byte of value [v]
   at position [P], [byte_t1.(v)] holds, in four 8-bit fields, how many
   set bits [i] of [v] have [popcount i = 0, 1, 2, 3] — so one integer
   add per byte accumulates four level counts at once. [byte_t2.(c)]
   is the same restricted to bits [i] with bit [c] set (the in-byte
   channels 0-2); channels >= 3 are decided by [P] alone and reuse
   [byte_t1]. *)
let byte_t1 =
  Array.init 256 (fun v ->
      let acc = ref 0 in
      for i = 0 to 7 do
        if (v lsr i) land 1 = 1 then
          acc := !acc + (1 lsl (8 * Bitops.popcount i))
      done;
      !acc)

let byte_t2 =
  Array.init 3 (fun c ->
      Array.init 256 (fun v ->
          let acc = ref 0 in
          for i = 0 to 7 do
            if (v lsr i) land 1 = 1 && (i lsr c) land 1 = 1 then
              acc := !acc + (1 lsl (8 * Bitops.popcount i))
          done;
          !acc))

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

let create ?(with_sigs = true) ~n () =
  check_n n;
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
  let count_pat =
    let slots = if with_sigs then n + 1 + (n * (n + 1)) else 0 in
    let p = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (slots * wpr) in
    Bigarray.Array1.fill p 0L;
    let set slot m =
      let w = (slot * wpr) + (m lsr 6) in
      Bigarray.Array1.set p w
        (Int64.logor (Bigarray.Array1.get p w) (Int64.shift_left 1L (m land 63)))
    in
    if with_sigs then
      for m = 0 to (1 lsl n) - 1 do
        let k = Bitops.popcount m in
        set k m;
        for c = 0 to n - 1 do
          if (m lsr c) land 1 = 1 then set (n + 1 + (c * (n + 1)) + k) m
        done
      done;
    p
  in
  let positions = if with_sigs then wpr * 8 else 0 in
  { n;
    wpr;
    cap;
    len = 0;
    words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((cap + 1) * wpr);
    card = Array.make cap 0;
    level = Array.make cap 0;
    hash = Array.make cap 0;
    sigs = (if with_sigs then Array.make (cap * sig_stride) 0 else [||]);
    with_sigs;
    sig_stride;
    lay;
    table = Array.make 256 0;
    mask = 255;
    sorted_row;
    count_pat;
    byte_pc = Array.init positions Bitops.popcount;
    byte_hc =
      Array.init positions (fun p ->
          let l = ref [] in
          for d = 12 downto 0 do
            if (p lsr d) land 1 = 1 then l := (3 + d) :: !l
          done;
          Array.of_list !l);
    sc_accl = Array.make (max 1 (n - 2)) 0;
    sc_accc = Array.make_matrix n (max 1 (n - 2)) 0;
    sc_lvl = Array.make (n + 1) 0;
    sc_chan = Array.make_matrix n (n + 1) 0;
    sc_zeros = Array.make (n + 1) 0;
    sc_cand = Array.make n 0;
    sc_order = Array.init n Fun.id;
    sc_opc = Array.make n 0;
    sc_pi = Array.make n 0;
    st_probes = 0;
    st_collisions = 0;
    st_resizes = 0 }

let n t = t.n
let length t = t.len
let card t idx = t.card.(idx)
let level t idx = t.level.(idx)

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
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.card <- grow_arr t.card 0;
  t.level <- grow_arr t.level 0;
  t.hash <- grow_arr t.hash 0;
  if t.with_sigs then begin
    let s' = Array.make (cap' * t.sig_stride) 0 in
    Array.blit t.sigs 0 s' 0 (t.cap * t.sig_stride);
    t.sigs <- s'
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

(* pack counts (field k = counts.(k)) at t.sigs[off ..]; runs 2n + 1
   times per committed state, so the single-word case (n <= 9) builds
   the word in a register and stores once *)
let pack_counts t counts off =
  let lay = t.lay in
  if lay.sig_words = 1 then begin
    let shift = lay.field_shift in
    let acc = ref 0 in
    for k = 0 to t.n do
      acc := !acc lor (Array.unsafe_get counts k lsl Array.unsafe_get shift k)
    done;
    Array.unsafe_set t.sigs off !acc
  end
  else begin
    for w = 0 to lay.sig_words - 1 do
      t.sigs.(off + w) <- 0
    done;
    for k = 0 to t.n do
      let w = lay.field_word.(k) and s = lay.field_shift.(k) in
      t.sigs.(off + w) <- t.sigs.(off + w) lor (counts.(k) lsl s)
    done
  end

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

(* count = popcount (row AND pattern), one word op pair per row word *)
let pat_count t rbase slot =
  let c = ref 0 in
  let pbase = slot * t.wpr in
  for w = 0 to t.wpr - 1 do
    c :=
      !c
      + pop64
          (Int64.logand
             (Bigarray.Array1.unsafe_get t.words (rbase + w))
             (Bigarray.Array1.unsafe_get t.count_pat (pbase + w)))
  done;
  !c

(* reference path (n > 10): one masked popcount per (slot, row word) *)
let compute_counts_pat t rbase =
  let nn = t.n in
  for k = 0 to nn do
    t.sc_lvl.(k) <- pat_count t rbase k
  done;
  for c = 0 to nn - 1 do
    let row = t.sc_chan.(c) in
    for k = 0 to nn do
      row.(k) <- pat_count t rbase (nn + 1 + (c * (nn + 1)) + k)
    done
  done

(* fast path (n <= 10, so every count fits 8 bits): one [byte_t1] add
   per nonzero row byte accumulates four level counts at once, keyed
   by the byte position's popcount; in-byte channels use [byte_t2],
   higher channels gate [byte_t1] on the position's bits *)
let compute_counts_packed t rbase =
  let nn = t.n in
  let accl = t.sc_accl and accc = t.sc_accc in
  let asz = Array.length accl in
  Array.fill accl 0 asz 0;
  for c = 0 to nn - 1 do
    Array.fill accc.(c) 0 asz 0
  done;
  let nlow = min 3 nn in
  for w = 0 to t.wpr - 1 do
    let x = Bigarray.Array1.unsafe_get t.words (rbase + w) in
    if x <> 0L then
      for b = 0 to 7 do
        let v = Int64.to_int (Int64.shift_right_logical x (8 * b)) land 0xFF in
        if v <> 0 then begin
          let p = (w lsl 3) + b in
          let pc = Array.unsafe_get t.byte_pc p in
          let tv = Array.unsafe_get byte_t1 v in
          Array.unsafe_set accl pc (Array.unsafe_get accl pc + tv);
          for c = 0 to nlow - 1 do
            let a = Array.unsafe_get accc c in
            Array.unsafe_set a pc
              (Array.unsafe_get a pc
              + Array.unsafe_get (Array.unsafe_get byte_t2 c) v)
          done;
          let hc = Array.unsafe_get t.byte_hc p in
          for k = 0 to Array.length hc - 1 do
            let a = Array.unsafe_get accc (Array.unsafe_get hc k) in
            Array.unsafe_set a pc (Array.unsafe_get a pc + tv)
          done
        end
      done
  done;
  let lvl = t.sc_lvl and chan = t.sc_chan in
  Array.fill lvl 0 (nn + 1) 0;
  for pc = 0 to asz - 1 do
    let a = Array.unsafe_get accl pc in
    if a <> 0 then
      for j = 0 to min 3 (nn - pc) do
        let k = pc + j in
        Array.unsafe_set lvl k
          (Array.unsafe_get lvl k + ((a lsr (8 * j)) land 0xFF))
      done
  done;
  for c = 0 to nn - 1 do
    let row = chan.(c) and ac = accc.(c) in
    Array.fill row 0 (nn + 1) 0;
    for pc = 0 to asz - 1 do
      let a = Array.unsafe_get ac pc in
      if a <> 0 then
        for j = 0 to min 3 (nn - pc) do
          let k = pc + j in
          Array.unsafe_set row k
            (Array.unsafe_get row k + ((a lsr (8 * j)) land 0xFF))
        done
    done
  done

let compute_sigs t idx =
  let nn = t.n in
  let rbase = idx * t.wpr in
  if nn <= 10 then compute_counts_packed t rbase else compute_counts_pat t rbase;
  let sw = t.lay.sig_words in
  let base = sig_base t idx in
  let lvl = t.sc_lvl in
  pack_counts t lvl base;
  (* channel c: ones signature then zeros (complement) signature *)
  let zeros = t.sc_zeros in
  for c = 0 to nn - 1 do
    let ones = t.sc_chan.(c) in
    for k = 0 to nn do
      zeros.(k) <- lvl.(k) - ones.(k)
    done;
    pack_counts t ones (base + ((1 + (2 * c)) * sw));
    pack_counts t zeros (base + ((2 + (2 * c)) * sw))
  done

(* fieldwise a <= b over one packed signature (the borrow trick) *)
let sig_le t off_a off_b =
  let lay = t.lay in
  let ok = ref true in
  for w = 0 to lay.sig_words - 1 do
    let g = Array.unsafe_get lay.guards w in
    if
      ((Array.unsafe_get t.sigs (off_b + w) lor g)
      - Array.unsafe_get t.sigs (off_a + w))
        land g
      <> g
    then ok := false
  done;
  !ok

(* --- dedup insert --- *)

let commit t ~level =
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
    t.level.(idx) <- level;
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
let staged_state t = state_of_base t (stage_off t)
let iter_masks t idx f = iter_row_masks t (idx * t.wpr) f

(* --- subsumption ---

   Boolean-identical to [Subsume.subsumes] on the corresponding
   states: the card / level / channel filters are the same pointwise
   <= tests (packed), the backtracking explores the same assignment
   space (possibly in a different order), and the final check is the
   same mask-image inclusion. The extra union check below only refutes
   pairs the backtracking would refute anyway (a channel of B missing
   from every candidate set cannot be covered by the injection). *)

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
  let sw = t.lay.sig_words in
  let sa = sig_base t a and sb = sig_base t b in
  (* n <= 9 packs each signature into one word: inline the borrow
     test there — this pair loop is the filter's hottest code and
     classic-mode ocamlopt does not inline sig_le *)
  (if sw = 1 then
     let g = t.lay.guards.(0) in
     ((Array.unsafe_get t.sigs sb lor g) - Array.unsafe_get t.sigs sa) land g
     = g
   else sig_le t sa sb)
  && (row_subset t (a * t.wpr) (b * t.wpr)
     ||
     let nn = t.n in
     let cand = t.sc_cand in
     let full = (1 lsl nn) - 1 in
     match
       let union = ref 0 in
       (if sw = 1 then begin
          let sigs = t.sigs and g = t.lay.guards.(0) in
          for c = 0 to nn - 1 do
            let oa = Array.unsafe_get sigs (sa + 1 + (2 * c))
            and za = Array.unsafe_get sigs (sa + 2 + (2 * c)) in
            let m = ref 0 in
            for c' = 0 to nn - 1 do
              let ob = Array.unsafe_get sigs (sb + 1 + (2 * c')) in
              if ((ob lor g) - oa) land g = g then begin
                let zb = Array.unsafe_get sigs (sb + 2 + (2 * c')) in
                if ((zb lor g) - za) land g = g then m := !m lor (1 lsl c')
              end
            done;
            if !m = 0 then raise No;
            cand.(c) <- !m;
            union := !union lor !m
          done
        end
        else
          for c = 0 to nn - 1 do
            let m = ref 0 in
            let oa = sa + ((1 + (2 * c)) * sw)
            and za = sa + ((2 + (2 * c)) * sw) in
            for c' = 0 to nn - 1 do
              if
                sig_le t oa (sb + ((1 + (2 * c')) * sw))
                && sig_le t za (sb + ((2 + (2 * c')) * sw))
              then m := !m lor (1 lsl c')
            done;
            if !m = 0 then raise No;
            cand.(c) <- !m;
            union := !union lor !m
          done);
       if !union <> full then raise No
     with
     | exception No -> false
     | () ->
         (* most constrained channel first — insertion sort on the
            precomputed candidate popcounts ([Array.sort] with a
            closure is measurable at this call rate; the order only
            steers the backtracking, the boolean result is
            order-independent) *)
         let order = t.sc_order and opc = t.sc_opc in
         for c = 0 to nn - 1 do
           order.(c) <- c;
           opc.(c) <- Bitops.popcount (Array.unsafe_get cand c)
         done;
         for i = 1 to nn - 1 do
           let c = Array.unsafe_get order i in
           let k = Array.unsafe_get opc c in
           let j = ref (i - 1) in
           while !j >= 0 && Array.unsafe_get opc (Array.unsafe_get order !j) > k
           do
             Array.unsafe_set order (!j + 1) (Array.unsafe_get order !j);
             decr j
           done;
           Array.unsafe_set order (!j + 1) c
         done;
         let pi = t.sc_pi in
         let ba = a * t.wpr and bb = b * t.wpr in
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
             let c = order.(i) in
             let avail = ref (cand.(c) land lnot used) in
             let ok = ref false in
             while (not !ok) && !avail <> 0 do
               let bit = !avail land - !avail in
               let c' = Bitops.floor_log2 bit in
               pi.(c) <- c';
               if assign (i + 1) (used lor bit) then ok := true
               else avail := !avail land lnot bit
             done;
             !ok
           end
         in
         assign 0 0)
