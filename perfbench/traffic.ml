(* The serve-mix request stream: what each request asks, the answer it
   must get, and the check of the server's response.

   The class shares are synthetic. Nothing in the repository records
   how the service is used (the serve rows of bench/main.ml are a
   scheduler throughput test on one 16-wire network, not a record of
   use), so each of the four parts of the traffic gets the same
   weight, 25%, and with it about the same number of latency samples:
   - verify on standard-form networks of 8-16 wires, 25%: the
     canonical-key path. Half of these resend an earlier network or
     send another sorter of a width already seen, so they hit the
     canonical-key cache (all sorters of one width share a canonical
     form); the other half are sorters with comparators removed, fresh
     misses that pay the key, the queue and the 2^n sweep. Half and
     half, because nothing says which is more common and both paths
     are measured;
   - verify on non-standard networks (bitonic, bitonic-shuffle at 8
     and 16 wires), 25%: the structural-key path, half repeats and
     half fresh mutants, for the same reason;
   - 0-1 eval, 25%: one input on a network from a small pool, so
     concurrent evals on one network can share a lane-packed pass;
   - lint 20% and certify 5%, at 8-12 wires, inside the analyzer's
     exact domain. Certify is the small share of this part because it
     is lint plus a cross-checking sweep, the costliest request of the
     mix, and is meant to be an occasional audit. *)

let share_verify_standard = 0.25
let share_verify_nonstandard = 0.25
let share_eval = 0.25
let share_lint = 0.20
let share_certify = 0.05
let repeat_share = 0.5

type expect =
  | Sorts of bool  (* verify, certify, lint *)
  | Output of int array  (* eval *)

(* [cls] names the request's class in report lines. *)
type item = { cls : string; verb : Wire.verb; payload : string; expect : expect }

let standard_sorters =
  List.filter
    (fun (e : Sorter_registry.entry) ->
      (not e.Sorter_registry.pow2_only)
      && Scache.is_standard (e.Sorter_registry.build 8))
    Sorter_registry.all

let nonstandard_sorters =
  List.filter
    (fun (e : Sorter_registry.entry) ->
      e.Sorter_registry.pow2_only
      && not (Scache.is_standard (e.Sorter_registry.build 8)))
    Sorter_registry.all

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let build (e : Sorter_registry.entry) n = e.Sorter_registry.build n

(* [nw] with [k] randomly chosen gates removed (pre permutations kept). *)
let remove_gates rng k nw =
  let levels = Array.of_list (Network.levels nw) in
  let victims = Hashtbl.create 4 in
  let total = Array.fold_left (fun a l -> a + List.length l.Network.gates) 0 levels in
  for _ = 1 to min k total do
    Hashtbl.replace victims (Random.State.int rng total) ()
  done;
  let idx = ref 0 in
  let levels =
    Array.to_list
      (Array.map
         (fun l ->
           let gates =
             List.filter
               (fun _ ->
                 let keep = not (Hashtbl.mem victims !idx) in
                 incr idx;
                 keep)
               l.Network.gates
           in
           { l with Network.gates })
         levels)
  in
  Network.create ~wires:(Network.wires nw) levels

(* Ground truth from the bit-sliced engine, memoised by network text. *)
let truth = Hashtbl.create 256

let sorts nw =
  let key = Network_io.to_string nw in
  match Hashtbl.find_opt truth key with
  | Some b -> b
  | None ->
      let b = Zero_one.is_sorting_network nw in
      Hashtbl.replace truth key b;
      b

let request ~id verb fields =
  Json.to_string
    (Json.Obj
       ((("id", Json.Int id) :: ("verb", Json.Str (Wire.verb_name verb)) :: fields)))

let inline nw = [ ("network", Json.Str (Network_io.to_string nw)) ]

let by_algo (e : Sorter_registry.entry) n =
  [ ("algo", Json.Str e.Sorter_registry.name); ("n", Json.Int n) ]

let width rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* A generator keeps the standard networks it has sent, for repeats,
   and the eval pool. *)
type gen = { rng : Random.State.t; mutable sent_std : Network.t list; eval_pool : Network.t array }

let create ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let eval_pool =
    Array.init 6 (fun i ->
        let e = pick rng standard_sorters in
        let n = [| 8; 12; 16 |].(i mod 3) in
        if i < 3 then build e n else remove_gates rng 1 (build e n))
  in
  { rng; sent_std = []; eval_pool }

let verify_standard g ~id =
  let rng = g.rng in
  let repeat = Random.State.float rng 1. < repeat_share in
  let nw, fields =
    if repeat && g.sent_std <> [] && Random.State.bool rng then
      let nw = pick rng g.sent_std in
      (nw, inline nw)
    else if repeat then
      let e = pick rng standard_sorters and n = width rng 8 16 in
      (build e n, by_algo e n)
    else
      let e = pick rng standard_sorters and n = width rng 8 16 in
      let nw = remove_gates rng (1 + Random.State.int rng 3) (build e n) in
      (nw, inline nw)
  in
  if not (List.memq nw g.sent_std) then g.sent_std <- nw :: g.sent_std;
  { cls = (if repeat then "verify-std-repeat" else "verify-std-fresh");
    verb = Wire.Verify;
    payload = request ~id Wire.Verify fields;
    expect = Sorts (sorts nw);
  }

let verify_nonstandard g ~id =
  let rng = g.rng in
  let e = pick rng nonstandard_sorters and n = if Random.State.bool rng then 8 else 16 in
  let nw, fields =
    if Random.State.bool rng then (build e n, by_algo e n)
    else
      let nw = remove_gates rng 1 (build e n) in
      (nw, inline nw)
  in
  { cls = "verify-nonstd"; verb = Wire.Verify; payload = request ~id Wire.Verify fields;
    expect = Sorts (sorts nw) }

let eval g ~id =
  let rng = g.rng in
  let nw = g.eval_pool.(Random.State.int rng (Array.length g.eval_pool)) in
  let input = Array.init (Network.wires nw) (fun _ -> Random.State.int rng 2) in
  { cls = "eval";
    verb = Wire.Eval;
    payload = request ~id Wire.Eval (inline nw @ [ ("input", Wire.ints_json input) ]);
    expect = Output (Network.eval nw input);
  }

let small g verb ~id =
  let rng = g.rng in
  let e = pick rng standard_sorters and n = width rng 8 12 in
  let nw = if Random.State.bool rng then build e n else remove_gates rng 1 (build e n) in
  { cls = Wire.verb_name verb; verb; payload = request ~id verb (inline nw);
    expect = Sorts (sorts nw) }

let classes =
  [ (share_verify_standard, verify_standard);
    (share_verify_nonstandard, verify_nonstandard);
    (share_eval, eval);
    (share_lint, fun g ~id -> small g Wire.Lint ~id);
    (share_certify, fun g ~id -> small g Wire.Certify ~id);
  ]

let next g ~id =
  let rec choose u = function
    | [ (_, f) ] -> f
    | (p, f) :: rest -> if u < p then f else choose (u -. p) rest
    | [] -> invalid_arg "Traffic.next: no classes"
  in
  (choose (Random.State.float g.rng 1.) classes) g ~id

(* [Ok ()] when the response is a success carrying the expected
   verdict. *)
let check item ~id response =
  let ( let* ) = Result.bind in
  let* json = Json.of_string response in
  let get k = Json.member k json in
  let bool k = Option.bind (get k) Json.to_bool in
  let* () = if get "id" = Some (Json.Int id) then Ok () else Error "id not echoed" in
  let* () =
    if bool "ok" = Some true then Ok () else Error ("error response: " ^ response)
  in
  let want b what = if b then Ok () else Error (what ^ ": " ^ response) in
  match (item.verb, item.expect) with
  | Wire.Verify, Sorts s -> want (bool "sorts" = Some s) "wrong verify verdict"
  | Wire.Certify, Sorts s ->
      let* () = want (bool "sorts" = Some s) "wrong certify verdict" in
      if s then want (bool "cross_checked" = Some true) "sorter not cross-checked"
      else want (bool "rechecked" = Some true) "witness not rechecked"
  | Wire.Lint, Sorts s ->
      let expected = if s then "sorting-proved" else "sorting-refuted" in
      want
        (Option.bind (get "sortedness") Json.to_str = Some expected)
        "wrong lint sortedness"
  | Wire.Eval, Output out ->
      let got =
        Option.map (List.filter_map Json.to_int) (Option.bind (get "output") Json.to_list)
      in
      let* () = want (got = Some (Array.to_list out)) "wrong eval output" in
      want (bool "sorted" = Some (Sortedness.is_sorted out)) "wrong eval sorted flag"
  | (Wire.Verify | Wire.Certify | Wire.Lint), Output _ | Wire.Eval, Sorts _ ->
      Error "internal: request and expectation disagree"
