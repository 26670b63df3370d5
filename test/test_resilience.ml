(* Crash-safety tests: CRC, atomic publication, the checkpoint
   envelope, fault injection, cooperative cancellation, and — the part
   that matters — kill-and-resume equivalence for the search driver,
   the shuffle search and the adversary. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_fault spec f =
  match Fault.set (Some spec) with
  | Error e -> Alcotest.fail ("fault spec rejected: " ^ e)
  | Ok () ->
      Fun.protect ~finally:(fun () -> ignore (Fault.set None)) f

let temp_path () =
  let path = Filename.temp_file "snlb" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Atomic_file.backup_path path ]

let with_temp f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- Crc32 --- *)

let test_crc_vectors () =
  check_int "empty" 0 (Crc32.string "");
  check_int "check vector" 0xCBF43926 (Crc32.string "123456789");
  check_int "single byte" 0xD202EF8D (Crc32.string "\x00")

let test_crc_incremental () =
  let a = "snlb checkpoint " and b = "payload bytes" in
  check_int "update composes" (Crc32.string (a ^ b))
    (Crc32.update (Crc32.update 0 a 0 (String.length a)) b 0 (String.length b));
  check_int "windowed" (Crc32.string "345")
    (Crc32.update 0 "123456789" 2 3)

let test_crc_sensitivity () =
  (* flipping any single bit of the input must change the checksum *)
  let s = "The quick brown fox jumps over the lazy dog" in
  let base = Crc32.string s in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        if Crc32.string (Bytes.to_string b) = base then
          Alcotest.failf "collision at byte %d bit %d" i bit
      done)
    s

(* --- Atomic_file --- *)

let test_atomic_write_roundtrip () =
  with_temp @@ fun path ->
  (match Atomic_file.write ~path "first" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_string "content" "first" (read_file path);
  check_bool "no backup by default" false
    (Sys.file_exists (Atomic_file.backup_path path))

let test_atomic_write_backup_rotation () =
  with_temp @@ fun path ->
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Atomic_file.write ~backup:true ~path "v1");
  check_bool "no backup on first write" false
    (Sys.file_exists (Atomic_file.backup_path path));
  ok (Atomic_file.write ~backup:true ~path "v2");
  check_string "new content" "v2" (read_file path);
  check_string "previous version parked" "v1"
    (read_file (Atomic_file.backup_path path))

let test_atomic_write_fail_injection () =
  with_temp @@ fun path ->
  (match Atomic_file.write ~path "good" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  with_fault "ckpt-write-fail" @@ fun () ->
  (match Atomic_file.write ~path "bad" with
  | Ok () -> Alcotest.fail "injected write failure did not fire"
  | Error _ -> ());
  check_string "previous contents untouched" "good" (read_file path)

let test_atomic_truncate_injection () =
  with_temp @@ fun path ->
  with_fault "ckpt-truncate" @@ fun () ->
  (match Atomic_file.write ~path "0123456789" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_string "torn file published" "01234" (read_file path)

(* --- Checkpoint --- *)

let sample_ckpt =
  { Checkpoint.kind = "snlb-test";
    meta = [ ("n", "6"); ("tag", "layers") ];
    payload = "arbitrary \x00 binary \xff bytes" }

let test_checkpoint_roundtrip () =
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Checkpoint.read ~path with
  | Error e -> Alcotest.fail e
  | Ok ck ->
      check_string "kind" sample_ckpt.Checkpoint.kind ck.Checkpoint.kind;
      check_bool "meta" true (ck.Checkpoint.meta = sample_ckpt.Checkpoint.meta);
      check_string "payload" sample_ckpt.Checkpoint.payload ck.Checkpoint.payload

(* The envelope's bytes, pinned: magic, CRC-32, version, kind, two
   meta pairs, payload (see checkpoint.mli). *)
let test_checkpoint_bytes_pinned () =
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  check_string "encoded bytes"
    ("534e4c42434b50540ffdd3ad0000000100000009736e6c622d746573740000000200"
   ^ "0000016e000000013600000003746167000000066c61796572730000001a61726269"
   ^ "747261727920002062696e61727920ff206279746573")
    (hex (read_file path))

let test_checkpoint_rejects_any_corrupt_byte () =
  (* the acceptance bar from the issue: a checkpoint with any single
     corrupted byte is rejected cleanly *)
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let good = read_file path in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file path (Bytes.to_string b);
      match Checkpoint.read ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "corrupted byte %d accepted" i)
    good

let test_checkpoint_rejects_any_truncation () =
  with_temp @@ fun path ->
  (match Checkpoint.write ~path sample_ckpt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let good = read_file path in
  for len = 0 to String.length good - 1 do
    write_file path (String.sub good 0 len);
    match Checkpoint.read ~path with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
  done;
  (* trailing garbage is rejected too *)
  write_file path (good ^ "x");
  match Checkpoint.read ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let test_checkpoint_backup_fallback () =
  with_temp @@ fun path ->
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Checkpoint.write ~path sample_ckpt);
  ok (Checkpoint.write ~path { sample_ckpt with payload = "newer" });
  (* tear the primary; load must fall back to the previous version *)
  let torn = read_file path in
  write_file path (String.sub torn 0 (String.length torn / 2));
  (match Checkpoint.load ~path with
  | Ok (ck, `Backup _) ->
      check_string "backup payload" sample_ckpt.Checkpoint.payload
        ck.Checkpoint.payload
  | Ok (_, `Primary) -> Alcotest.fail "torn primary accepted"
  | Error e -> Alcotest.fail ("backup not used: " ^ e));
  (* with both copies gone, load reports an error instead of raising *)
  cleanup path;
  match Checkpoint.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing checkpoint loaded"

let test_checkpoint_write_retry () =
  (* seed 1 at prob 0.6 makes the first ckpt-write-fail draw fire and
     the second skip: the write fails once, the bounded retry lands *)
  with_temp (fun path ->
      with_fault "ckpt-write-fail:0.6:1" @@ fun () ->
      (match Checkpoint.write ~attempts:3 ~backoff_ms:1. ~path sample_ckpt with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("retry did not recover: " ^ e));
      match Checkpoint.read ~path with
      | Ok ck ->
          check_string "retried payload intact" sample_ckpt.Checkpoint.payload
            ck.Checkpoint.payload
      | Error e -> Alcotest.fail e);
  (* a persistent failure exhausts the budget and hard-fails *)
  with_temp (fun path ->
      with_fault "ckpt-write-fail" @@ fun () ->
      match Checkpoint.write ~attempts:3 ~backoff_ms:1. ~path sample_ckpt with
      | Error _ -> check_bool "nothing published" false (Sys.file_exists path)
      | Ok () -> Alcotest.fail "write claimed success under a permanent fault")

(* --- Fault --- *)

let test_fault_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.set (Some spec) with
      | Ok () ->
          ignore (Fault.set None);
          Alcotest.failf "accepted %S" spec
      | Error _ -> ())
    [ ""; "no-such-point"; "kill-level:2.0"; "kill-level:x";
      "kill-level:0.5:x"; "kill-level:0.5:1:extra" ]

let test_fault_probability_boundaries () =
  (* out-of-range probabilities must be rejected loudly, never
     clamped or silently accepted — in every spec shape *)
  let rejected spec =
    match Fault.set (Some spec) with
    | Ok () ->
        ignore (Fault.set None);
        Alcotest.failf "accepted out-of-range probability %S" spec
    | Error e ->
        check_bool (spec ^ ": error names the range") true
          (let range = "probability outside [0, 1]" in
           let n = String.length range in
           let rec has i =
             i + n <= String.length e && (String.sub e i n = range || has (i + 1))
           in
           has 0)
  in
  List.iter rejected
    [ "kill-worker:1.5"; "kill-worker:-0.001"; "kill-worker:1.0000001";
      "kill-worker:nan"; "kill-worker:inf"; "kill-worker:-inf";
      "kill-worker:1.5:42"; "stall-worker:2"; "corrupt-result:-1:7" ];
  (* the closed boundaries themselves are legal *)
  List.iter
    (fun spec ->
      match Fault.set (Some spec) with
      | Ok () -> ignore (Fault.set None)
      | Error e -> Alcotest.failf "rejected boundary spec %S: %s" spec e)
    [ "kill-worker:0"; "kill-worker:0.0"; "kill-worker:1"; "kill-worker:1.0";
      "kill-worker:0.0:42"; "kill-worker:1.0:42" ];
  (* and behave as the degenerate schedules they name *)
  with_fault "kill-worker:1.0" (fun () ->
      check_bool "prob 1.0 always fires" true
        (List.for_all Fun.id (List.init 32 (fun _ -> Fault.fire "kill-worker"))));
  with_fault "kill-worker:0.0" (fun () ->
      check_bool "prob 0.0 never fires" false
        (List.mem true (List.init 32 (fun _ -> Fault.fire "kill-worker"))))

let test_fault_worker_points_exist () =
  (* the shard supervisor's sabotage points are registered (and so
     usable from SNLB_FAULT) *)
  List.iter
    (fun p -> check_bool p true (List.mem p Fault.points))
    [ "kill-worker"; "stall-worker"; "corrupt-result" ]

let test_fault_off_by_default () =
  ignore (Fault.set None);
  check_bool "inactive" true (Fault.active () = None);
  List.iter (fun p -> check_bool p false (Fault.fire p)) Fault.points

let test_fault_point_selectivity () =
  with_fault "kill-level" @@ fun () ->
  check_bool "configured point fires" true (Fault.fire "kill-level");
  check_bool "other points do not" false (Fault.fire "kill-block");
  check_bool "prob 1.0 fires every time" true (Fault.fire "kill-level")

let test_fault_probability_determinism () =
  let draw () =
    with_fault "kill-level:0.5:42" @@ fun () ->
    List.init 64 (fun _ -> Fault.fire "kill-level")
  in
  let a = draw () and b = draw () in
  check_bool "same seed, same schedule" true (a = b);
  check_bool "prob 0.5 fires sometimes" true (List.mem true a);
  check_bool "prob 0.5 skips sometimes" true (List.mem false a);
  with_fault "kill-level:0" @@ fun () ->
  check_bool "prob 0 never fires" false
    (List.mem true (List.init 64 (fun _ -> Fault.fire "kill-level")))

(* --- Cancel --- *)

let test_cancel_token () =
  let t = Cancel.create () in
  check_bool "fresh token" false (Cancel.cancelled t);
  Cancel.cancel t;
  check_bool "tripped" true (Cancel.cancelled t);
  Cancel.cancel t;
  check_bool "sticky" true (Cancel.cancelled t)

let test_cancelled_driver_interrupts () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  match Driver.optimal_depth ~cancel ~n:5 () with
  | Driver.Interrupted stats ->
      check_int "no levels completed" 0 stats.Driver.completed_levels
  | _ -> Alcotest.fail "pre-cancelled run must return Interrupted"

(* --- kill-and-resume equivalence --- *)

(* Run [step ~resume ()] repeatedly — each incarnation is killed by the
   injected fault and leaves a checkpoint — until it returns a final
   outcome; [bound] guards against a broken resume looping forever. *)
let rec resume_until_done ~bound ~step resume =
  if bound = 0 then Alcotest.fail "resume loop did not converge"
  else
    match step ~resume () with
    | `Done v -> v
    | `Again r -> resume_until_done ~bound:(bound - 1) ~step (Some r)

let stats_agree what (a : Driver.stats) (b : Driver.stats) =
  check_int (what ^ ": nodes") a.Driver.nodes b.Driver.nodes;
  check_int (what ^ ": pruned") a.Driver.pruned b.Driver.pruned;
  check_int (what ^ ": deduped") a.Driver.deduped b.Driver.deduped;
  check_int (what ^ ": subsumed") a.Driver.subsumed b.Driver.subsumed;
  check_bool (what ^ ": frontier sizes") true
    (a.Driver.frontier_sizes = b.Driver.frontier_sizes);
  check_int (what ^ ": completed levels") a.Driver.completed_levels
    b.Driver.completed_levels

let test_driver_kill_resume_equivalence () =
  (* free-layer searches killed at every boundary, so each run takes
     one level per incarnation; the final outcome must be identical to
     an uninterrupted run. Both dedup modes go through the checkpoint
     format: subsumption (n=5, n=7) and the equality-only reference
     system (n=5) *)
  List.iter
    (fun (n, restrict) ->
      let what = Printf.sprintf "n=%d restrict=%b" n restrict in
      let fresh =
        match Driver.optimal_depth ~restrict ~n () with
        | Driver.Sorted { depth; moves; stats } -> (depth, moves, stats)
        | _ -> Alcotest.fail (what ^ " must certify")
      in
      with_temp @@ fun path ->
      let interrupted = ref 0 in
      let step ~resume () =
        let outcome =
          with_fault "kill-level" @@ fun () ->
          Driver.optimal_depth ?resume ~checkpoint:(path, 0.) ~restrict ~n ()
        in
        match outcome with
        | Driver.Sorted { depth; moves; stats } -> `Done (depth, moves, stats)
        | Driver.Interrupted _ -> (
            incr interrupted;
            match Driver.resume ~path with
            | Ok rs -> `Again rs
            | Error e -> Alcotest.fail ("resume failed: " ^ e))
        | _ -> Alcotest.fail "unexpected outcome under kill-level"
      in
      let fresh_depth, fresh_moves, fresh_stats = fresh in
      let depth, moves, stats = resume_until_done ~bound:10 ~step None in
      check_bool (what ^ ": killed at least twice") true (!interrupted >= 2);
      check_int (what ^ ": same depth") fresh_depth depth;
      check_bool (what ^ ": same witness") true (fresh_moves = moves);
      stats_agree what fresh_stats stats)
    [ (5, true); (7, true); (5, false) ]

(* A snlb-search-driver-3 payload, taken apart by offset: for the
   boundary before [level], 7 scalar fields and [level - 1] frontier
   sizes (8 bytes each), then the row block (12-byte header, 8 bytes
   per row at n <= 6), the kept count and indices, the frontier count
   and per entry a row index and [level - 1] move indices. *)
let test_driver_resume_rejects_damaged_payload () =
  let n = 5 in
  let fresh =
    match Driver.optimal_depth ~n () with
    | Driver.Sorted { depth; moves; stats } -> (depth, moves, stats)
    | _ -> Alcotest.fail "n=5 must certify"
  in
  with_temp @@ fun path ->
  (* the boundary before level 2 *)
  (match
     with_fault "kill-level" @@ fun () ->
     Driver.optimal_depth ~checkpoint:(path, 0.) ~n ()
   with
  | Driver.Interrupted _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt");
  let ck =
    match Checkpoint.read ~path with
    | Ok ck -> ck
    | Error e -> Alcotest.fail e
  in
  check_string "kind" "snlb-search-driver-3" ck.Checkpoint.kind;
  let level = 2 in
  let p = ck.Checkpoint.payload in
  let rows_at = 8 * (7 + level - 1) in
  let nrows = Int32.to_int (String.get_int32_le p (rows_at + 8)) in
  let kept_at = rows_at + 12 + (8 * nrows) in
  let nkept = Int64.to_int (String.get_int64_le p kept_at) in
  let frontier_at = kept_at + 8 + (8 * nkept) in
  check_bool "rows, a representative and a frontier entry" true
    (nrows >= 2 && nkept >= 1
    && Int64.to_int (String.get_int64_le p frontier_at) >= 1);
  let set o v =
    let b = Bytes.of_string p in
    Bytes.set_int64_le b o (Int64.of_int v);
    Bytes.to_string b
  in
  let level1_moves =
    List.length ((Driver.network_system ~n ()).Driver.moves_at ~level:1)
  in
  let resumes = Metrics.counter "checkpoint.resumes" in
  let fresh_depth, fresh_moves, fresh_stats = fresh in
  let resume_with what payload ~resumed =
    (match Checkpoint.write ~path { ck with Checkpoint.payload } with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    match Driver.resume ~path with
    | Error e -> Alcotest.fail e
    | Ok rs -> (
        let before = Metrics.value resumes in
        match Driver.optimal_depth ~resume:rs ~n () with
        | Driver.Sorted { depth; moves; stats } ->
            check_int (what ^ ": resumed, not restarted") (Bool.to_int resumed)
              (Metrics.value resumes - before);
            check_int (what ^ ": same depth") fresh_depth depth;
            check_bool (what ^ ": same witness") true (fresh_moves = moves);
            stats_agree what fresh_stats stats
        | _ -> Alcotest.fail (what ^ ": must certify"))
  in
  resume_with "intact payload" p ~resumed:true;
  resume_with "truncated row block"
    (String.sub p 0 (rows_at + 12 + (8 * (nrows - 1)) + 4))
    ~resumed:false;
  resume_with "kept index out of range" (set (kept_at + 8) nrows) ~resumed:false;
  resume_with "move index past the level's moves"
    (set (frontier_at + 16) level1_moves)
    ~resumed:false;
  (* the previous, Marshal-based kind is refused before its payload is
     read; the CLI then starts fresh *)
  (match
     Checkpoint.write ~path { ck with Checkpoint.kind = "snlb-search-driver-2" }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "driver-2 snapshot refused" true
    (Result.is_error (Driver.resume ~path))

let test_driver_resume_describe_and_mismatch () =
  with_temp @@ fun path ->
  (* leave a checkpoint at the first boundary of an n=5 run *)
  (match
     with_fault "kill-level" @@ fun () ->
     Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
   with
  | Driver.Interrupted _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt");
  match Driver.resume ~path with
  | Error e -> Alcotest.fail e
  | Ok rs ->
      check_bool "describe mentions the tag" true
        (let d = Driver.describe rs in
         String.length d > 0
         &&
         let rec contains i =
           i + 6 <= String.length d
           && (String.sub d i 6 = "layers" || contains (i + 1))
         in
         contains 0);
      (* resuming into a different width degrades to a fresh run (and
         still certifies) rather than trusting a stale snapshot *)
      (match Driver.optimal_depth ~resume:rs ~n:4 () with
      | Driver.Sorted { depth; _ } -> check_int "n=4 fresh despite rs" 3 depth
      | _ -> Alcotest.fail "mismatched resume must fall back to fresh")

let test_min_depth_kill_resume_equivalence () =
  let fresh =
    match Min_depth.minimal_depth ~n:4 ~max_depth:3 () with
    | Min_depth.Minimal (d, prog) -> (d, prog)
    | _ -> Alcotest.fail "n=4 shuffle minimal depth must resolve"
  in
  with_temp @@ fun path ->
  let step ~resume () =
    let outcome =
      with_fault "kill-level" @@ fun () ->
      Min_depth.minimal_depth ?resume ~checkpoint:(path, 0.) ~n:4 ~max_depth:3 ()
    in
    match outcome with
    | Min_depth.Minimal (d, prog) -> `Done (d, prog)
    | Min_depth.Stopped _ -> (
        match Driver.resume ~path with
        | Ok rs -> `Again rs
        | Error e -> Alcotest.fail ("resume failed: " ^ e))
    | _ -> Alcotest.fail "unexpected outcome under kill-level"
  in
  let resumed = resume_until_done ~bound:10 ~step None in
  check_int "same minimal depth" (fst fresh) (fst resumed);
  check_bool "same witness" true (snd fresh = snd resumed)

let test_tag_guard_between_searches () =
  (* a shuffle-ops snapshot must not resume into the free-layer search:
     n and max_depth can coincide, only the tag tells them apart *)
  with_temp @@ fun path ->
  (match
     with_fault "kill-level" @@ fun () ->
     Min_depth.minimal_depth ~checkpoint:(path, 0.) ~n:4 ~max_depth:4 ()
   with
  | Min_depth.Stopped _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt the shuffle search");
  match Driver.resume ~path with
  | Error e -> Alcotest.fail e
  | Ok rs -> (
      match Driver.optimal_depth ~resume:rs ~max_depth:4 ~n:4 () with
      | Driver.Sorted { depth; _ } ->
          check_int "fresh free-layer run despite foreign snapshot" 3 depth
      | _ -> Alcotest.fail "foreign snapshot must degrade to a fresh run")

let test_adversary_kill_resume_equivalence () =
  let it = Shuffle_net.to_iterated (Bitonic.shuffle_program ~n:16) in
  let fresh = Theorem41.run it in
  check_bool "uninterrupted baseline" false fresh.Theorem41.interrupted;
  with_temp @@ fun path ->
  let step ~resume () =
    let resume = resume <> None in
    let r =
      with_fault "kill-block" @@ fun () ->
      Theorem41.run ~checkpoint:path ~resume it
    in
    if r.Theorem41.interrupted then `Again () else `Done r
  in
  let resumed = resume_until_done ~bound:10 ~step None in
  check_int "same survived" fresh.Theorem41.survived resumed.Theorem41.survived;
  check_bool "same reports" true
    (fresh.Theorem41.reports = resumed.Theorem41.reports);
  check_bool "same final pattern" true
    (fresh.Theorem41.final_pattern = resumed.Theorem41.final_pattern);
  check_bool "same m-set" true
    (fresh.Theorem41.final_m_set = resumed.Theorem41.final_m_set);
  check_bool "same exhausted" true
    (fresh.Theorem41.exhausted = resumed.Theorem41.exhausted)

let test_search_survives_failing_checkpoint_writes () =
  with_temp @@ fun path ->
  let outcome =
    with_fault "ckpt-write-fail" @@ fun () ->
    Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
  in
  (match outcome with
  | Driver.Sorted { depth; _ } ->
      check_int "verdict unaffected by write failures" 5 depth
  | _ -> Alcotest.fail "run must complete despite failing writes");
  check_bool "no checkpoint file left" false (Sys.file_exists path)

let test_search_recovers_from_torn_checkpoint () =
  with_temp @@ fun path ->
  (* one good boundary... *)
  (match
     with_fault "kill-level" @@ fun () ->
     Driver.optimal_depth ~checkpoint:(path, 0.) ~n:5 ()
   with
  | Driver.Interrupted _ -> ()
  | _ -> Alcotest.fail "kill-level must interrupt");
  (* ...then a torn publication over it: the primary is garbage but the
     atomic writer parked the good version as .bak *)
  (match
     with_fault "ckpt-truncate" @@ fun () ->
     Checkpoint.write ~path { sample_ckpt with payload = "next boundary" }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Driver.resume ~path with
  | Error e -> Alcotest.fail ("backup should have been used: " ^ e)
  | Ok rs -> (
      match Driver.optimal_depth ~resume:rs ~n:5 () with
      | Driver.Sorted { depth; _ } -> check_int "resumed from backup" 5 depth
      | _ -> Alcotest.fail "resume from backup must certify")

let () =
  Alcotest.run "resilience"
    [ ( "crc32",
        [ Alcotest.test_case "standard vectors" `Quick test_crc_vectors;
          Alcotest.test_case "incremental update" `Quick test_crc_incremental;
          Alcotest.test_case "single-bit sensitivity" `Quick test_crc_sensitivity ] );
      ( "atomic-file",
        [ Alcotest.test_case "write/read" `Quick test_atomic_write_roundtrip;
          Alcotest.test_case "backup rotation" `Quick
            test_atomic_write_backup_rotation;
          Alcotest.test_case "injected write failure" `Quick
            test_atomic_write_fail_injection;
          Alcotest.test_case "injected torn write" `Quick
            test_atomic_truncate_injection ] );
      ( "checkpoint",
        [ Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "every corrupt byte rejected" `Quick
            test_checkpoint_rejects_any_corrupt_byte;
          Alcotest.test_case "every truncation rejected" `Quick
            test_checkpoint_rejects_any_truncation;
          Alcotest.test_case "backup fallback" `Quick
            test_checkpoint_backup_fallback;
          Alcotest.test_case "bounded write retry" `Quick
            test_checkpoint_write_retry;
          Alcotest.test_case "encoded bytes pinned" `Quick
            test_checkpoint_bytes_pinned ] );
      ( "fault",
        [ Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "probability boundaries" `Quick
            test_fault_probability_boundaries;
          Alcotest.test_case "worker points registered" `Quick
            test_fault_worker_points_exist;
          Alcotest.test_case "off by default" `Quick test_fault_off_by_default;
          Alcotest.test_case "point selectivity" `Quick
            test_fault_point_selectivity;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_fault_probability_determinism ] );
      ( "cancel",
        [ Alcotest.test_case "token" `Quick test_cancel_token;
          Alcotest.test_case "driver honours token" `Quick
            test_cancelled_driver_interrupts ] );
      ( "kill-and-resume",
        [ Alcotest.test_case "driver equivalence" `Quick
            test_driver_kill_resume_equivalence;
          Alcotest.test_case "describe + width mismatch" `Quick
            test_driver_resume_describe_and_mismatch;
          Alcotest.test_case "shuffle search equivalence" `Quick
            test_min_depth_kill_resume_equivalence;
          Alcotest.test_case "tag guards cross-resume" `Quick
            test_tag_guard_between_searches;
          Alcotest.test_case "adversary equivalence" `Quick
            test_adversary_kill_resume_equivalence;
          Alcotest.test_case "failing writes don't fail the run" `Quick
            test_search_survives_failing_checkpoint_writes;
          Alcotest.test_case "torn checkpoint falls back to backup" `Quick
            test_search_recovers_from_torn_checkpoint;
          Alcotest.test_case "damaged payload starts fresh" `Quick
            test_driver_resume_rejects_damaged_payload ] ) ]
