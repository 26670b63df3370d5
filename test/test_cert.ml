(* Tests for the certificate layer (lib/cert + its emitters): soundness
   of the bounds order-matrix facts the certificates cite, print/parse
   round-trips through the portable text format, the n=6 exhaustion
   certificate against its recorded digest, and rejection of corrupted certificates
   with typed CRT*** errors. The checker shares no code with the
   engine, searcher, or analyzer, so every accepted certificate here is
   an independent confirmation of the emitting component. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let zero_one_inputs n =
  Array.init (1 lsl n) (fun m -> Array.init n (fun w -> (m lsr w) land 1))

let random_network rng ~n ~levels =
  let level () =
    let wires = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Xoshiro.int rng ~bound:(i + 1) in
      let t = wires.(i) in
      wires.(i) <- wires.(j);
      wires.(j) <- t
    done;
    let pairs = Xoshiro.int rng ~bound:((n / 2) + 1) in
    List.init pairs (fun k ->
        let a = wires.(2 * k) and b = wires.((2 * k) + 1) in
        Gate.Compare { lo = min a b; hi = max a b })
  in
  Network.of_gate_levels ~wires:n (List.init levels (fun _ -> level ()))

let code_of = function Ok () -> "ok" | Error e -> e.Cert.code

(* --- bounds order-matrix soundness: every leq fact the bounds walk
   derives after every level really holds on all 2^n inputs of the
   prefix network --- *)

let test_bounds_soundness () =
  let rng = Xoshiro.of_seed 513 in
  for _ = 1 to 60 do
    let n = 2 + Xoshiro.int rng ~bound:7 (* 2..8 *) in
    let levels = 1 + Xoshiro.int rng ~bound:6 in
    let nw = random_network rng ~n ~levels in
    let b = Bounds.create n in
    List.iteri
      (fun li (level : Network.level) ->
        (match level.Network.pre with
        | None -> ()
        | Some p -> Bounds.transfer_perm b p);
        List.iter (fun g -> Bounds.transfer_gate b g) level.Network.gates;
        (* evaluate the prefix ending at this level on every input *)
        let prefix =
          Network.create ~wires:n
            (List.filteri (fun i _ -> i <= li) (Network.levels nw))
        in
        Array.iter
          (fun input ->
            let out = Network.eval prefix input in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i <> j && Bounds.leq b i j && out.(i) > out.(j) then
                  Alcotest.failf
                    "bounds claims %d <= %d after level %d, violated" i j
                    (li + 1)
              done
            done)
          (zero_one_inputs n))
      (Network.levels nw)
  done

(* --- registry round-trip: every registry sorter's n=8 sortedness
   certificate prints, re-parses to the same text, and checks --- *)

let test_registry_roundtrip () =
  List.iter
    (fun (e : Sorter_registry.entry) ->
      let nw = e.build 8 in
      match Analysis_cert.sortedness nw with
      | Error err -> Alcotest.failf "%s: no certificate: %s" e.name err
      | Ok c ->
          check_string (e.name ^ " kind") "sortedness" (Cert.kind_name c);
          let text = Cert.to_string c in
          (match Cert.parse text with
          | Error err ->
              Alcotest.failf "%s: reparse rejected: %s %s: %s" e.name
                err.Cert.code err.Cert.where err.Cert.reason
          | Ok [ c' ] ->
              check_string (e.name ^ " round-trip") text (Cert.to_string c');
              check_string (e.name ^ " checks") "ok" (code_of (Cert.check c'))
          | Ok certs ->
              Alcotest.failf "%s: %d certificates from one text" e.name
                (List.length certs)))
    Sorter_registry.all

(* --- the search logs the frontiers the legacy engine logged, so its
   exhaustion certificate (n=6, depth 4) is byte-identical to the one
   recorded in golden/ --- *)

let exhaustion_text ~n ~max_depth =
  let frontiers = ref [] in
  let frontier_log ~level:_ states = frontiers := states :: !frontiers in
  match Driver.optimal_depth ~frontier_log ~restrict:false ~max_depth ~n () with
  | Driver.Unsorted _ -> (
      match
        Cert_emit.exhaustion ~n ~max_depth ~frontiers:(List.rev !frontiers)
      with
      | Ok c -> Cert.to_string c
      | Error e -> Alcotest.failf "no exhaustion certificate: %s" e)
  | _ -> Alcotest.fail "expected Unsorted at n=6 depth 4"

let test_exhaustion_engines_identical () =
  let n = 6 and max_depth = 4 in
  let text = exhaustion_text ~n ~max_depth in
  Golden.check "cert.txt"
    (Golden.key ~n ~max_depth None)
    ("exhaustion-digest " ^ Digest.to_hex (Digest.string text));
  match Cert.parse text with
  | Error e -> Alcotest.failf "reparse rejected: %s" e.Cert.reason
  | Ok certs -> check_string "checks" "ok" (code_of (Cert.check_all certs))

(* --- refutation: a truncated sorter gets a witness-replay
   certificate; a corrupted (sorted) witness is rejected CRT211 --- *)

let broken4 =
  Network.of_gate_levels ~wires:4
    [ [ Gate.Compare { lo = 0; hi = 1 }; Gate.Compare { lo = 2; hi = 3 } ];
      [ Gate.Compare { lo = 0; hi = 2 }; Gate.Compare { lo = 1; hi = 3 } ];
    ]

let test_refutation () =
  match Analysis_cert.sortedness broken4 with
  | Error e -> Alcotest.failf "no certificate: %s" e
  | Ok (Cert.Refutation { network; witness } as c) ->
      check_string "checks" "ok" (code_of (Cert.check c));
      check_bool "witness really unsorted" false
        (Cert.is_sorted_mask ~n:4 (Cert.eval_mask network witness));
      (* input 0 sorts trivially: the claim becomes false *)
      let bad = Cert.Refutation { network; witness = 0 } in
      check_string "corrupt witness rejected" "CRT211" (code_of (Cert.check bad))
  | Ok c -> Alcotest.failf "expected refutation, got %s" (Cert.kind_name c)

(* --- dead gates: a re-compare after sorting is certified dead; the
   same claim against a live gate is rejected CRT221 --- *)

let test_dead_gates () =
  let dup =
    Network.of_gate_levels ~wires:4
      [ [ Gate.Compare { lo = 0; hi = 1 }; Gate.Compare { lo = 2; hi = 3 } ];
        [ Gate.Compare { lo = 0; hi = 2 }; Gate.Compare { lo = 1; hi = 3 } ];
        [ Gate.Compare { lo = 1; hi = 2 } ];
        [ Gate.Compare { lo = 1; hi = 2 } ];
      ]
  in
  match Analysis_cert.dead_gates dup with
  | Error e -> Alcotest.failf "no certificate: %s" e
  | Ok None -> Alcotest.fail "expected a dead-gate certificate"
  | Ok (Some (Cert.Dead_gates { network; sets; claims } as c)) ->
      check_string "checks" "ok" (code_of (Cert.check c));
      check_bool "has a dead claim" true
        (List.exists
           (function Cert.Dead { level = 4; _ } -> true | _ -> false)
           claims);
      let bad =
        Cert.Dead_gates
          { network; sets; claims = [ Cert.Dead { level = 1; gate = 0 } ] }
      in
      check_string "live gate claim rejected" "CRT221"
        (code_of (Cert.check bad))
  | Ok (Some c) ->
      Alcotest.failf "expected dead-gates, got %s" (Cert.kind_name c)

(* --- lower bound: the naive adversary's fooling pair on an all-plus
   shuffle network packages into a register-model transcript the
   checker replays; breaking the value adjacency is rejected --- *)

let test_lower_bound () =
  let prog = Shuffle_net.all_plus_program ~n:4 ~stages:4 in
  let nw = Register_model.to_network prog in
  let res = Theorem41.run (Shuffle_net.to_iterated prog) in
  match Certificate.of_pattern res.Theorem41.final_pattern with
  | None -> Alcotest.fail "adversary found no fooling pair on all-plus n=4"
  | Some cert -> (
      check_string "fooling pair validates" "ok"
        (match Certificate.validate nw cert with
        | Ok () -> "ok"
        | Error e -> e);
      match Certificate.to_cert nw cert with
      | Error e -> Alcotest.failf "no portable certificate: %s" e
      | Ok (Cert.Lower_bound lb as c) -> (
          check_string "checks" "ok" (code_of (Cert.check c));
          let text = Cert.to_string c in
          (match Cert.parse text with
          | Ok [ c' ] -> check_string "round-trip" text (Cert.to_string c')
          | Ok _ | Error _ -> Alcotest.fail "reparse failed");
          let bad = Cert.Lower_bound { lb with value1 = lb.value0 } in
          match Cert.check bad with
          | Ok () -> Alcotest.fail "non-adjacent values accepted"
          | Error e ->
              check_bool "typed rejection" true
                (String.length e.Cert.code = 6
                && String.sub e.Cert.code 0 3 = "CRT"))
      | Ok c -> Alcotest.failf "expected lower-bound, got %s" (Cert.kind_name c))

(* --- parse errors are typed --- *)

let test_parse_errors () =
  (match Cert.parse "not a certificate\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> check_string "magic line" "CRT001" e.Cert.code);
  match Cert.parse "snlb-cert 1\nkind exhaustion\nn 4\nmax-depth 2\n" with
  | Ok _ -> Alcotest.fail "truncated certificate accepted"
  | Error e -> check_string "unterminated" "CRT001" e.Cert.code

let () =
  Alcotest.run "cert"
    [
      ( "domains",
        [
          Alcotest.test_case "bounds-soundness-60" `Quick test_bounds_soundness;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "registry-n8" `Quick test_registry_roundtrip;
          Alcotest.test_case "golden-digest-n6" `Quick
            test_exhaustion_engines_identical;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "refutation" `Quick test_refutation;
          Alcotest.test_case "dead-gates" `Quick test_dead_gates;
          Alcotest.test_case "lower-bound" `Quick test_lower_bound;
          Alcotest.test_case "parse-errors" `Quick test_parse_errors;
        ] );
    ]
