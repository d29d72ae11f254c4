(* Tests for lib/parallel and the sharded campaigns: shard decomposition
   invariants, IPC frame decoding across split reads, fork-pool ordering +
   crash degradation, cache crash-safety (corrupt entries as misses, atomic
   stores, racy directory creation), the monotonic-ish clock, and the
   headline determinism property — campaign and harness results at
   [jobs = 4] byte-identical to [jobs = 1]. *)

module Shard = Switchv_parallel.Shard
module Ipc = Switchv_parallel.Ipc
module Pool = Switchv_parallel.Pool
module Cache = Switchv_symbolic.Cache
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Telemetry = Switchv_telemetry.Telemetry
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Report = Switchv_core.Report
module Harness = Switchv_core.Harness
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_int_list = Alcotest.(check (list int))
let check_string_list = Alcotest.(check (list string))

(* --- shard decomposition --------------------------------------------------- *)

let test_shard_counts () =
  check_int_list "even split" [ 3; 3; 3 ]
    (Array.to_list (Shard.counts ~total:9 ~shards:3));
  check_int_list "remainder goes to earlier shards" [ 3; 3; 2; 2 ]
    (Array.to_list (Shard.counts ~total:10 ~shards:4));
  check_int_list "more shards than items" [ 1; 1; 0 ]
    (Array.to_list (Shard.counts ~total:2 ~shards:3));
  check_int_list "shards clamped to 1" [ 5 ]
    (Array.to_list (Shard.counts ~total:5 ~shards:0))

let test_shard_partition () =
  let xs = List.init 11 (fun i -> i) in
  let slices = Shard.partition ~shards:4 xs in
  (* Concatenating slices in shard order rebuilds the input. *)
  check_int_list "concatenation rebuilds input" xs
    (List.concat_map snd (Array.to_list slices));
  (* Each slice's offset is its global start index. *)
  Array.iter
    (fun (off, slice) ->
      match slice with
      | x :: _ -> check_int "offset is global index of slice head" x off
      | [] -> ())
    slices

let test_shard_assignment () =
  let plan = Shard.assignment ~jobs:3 ~shards:8 in
  check_int "one slot per worker" 3 (Array.length plan);
  (* Every shard appears exactly once, ascending within each worker. *)
  let all = List.sort compare (List.concat (Array.to_list plan)) in
  check_int_list "every shard assigned once" [ 0; 1; 2; 3; 4; 5; 6; 7 ] all;
  Array.iter
    (fun shards -> check_bool "ascending" true (List.sort compare shards = shards))
    plan;
  check_int "jobs capped by shards" 2 (Array.length (Shard.assignment ~jobs:9 ~shards:2))

(* --- IPC framing ----------------------------------------------------------- *)

let test_ipc_split_frames () =
  (* Two frames fed one byte at a time must decode to the original
     payloads, in order — the parent never sees aligned reads. *)
  let payloads = [ "hello"; String.make 300 'x'; "" ] in
  let rfd, wfd = Unix.pipe () in
  List.iter (Ipc.write_frame wfd) payloads;
  Unix.close wfd;
  let dec = Ipc.decoder () in
  let out = ref [] in
  let byte = Bytes.create 1 in
  let rec pump () =
    match Unix.read rfd byte 0 1 with
    | 0 -> ()
    | _ ->
        Ipc.feed dec byte 1;
        let rec drain () =
          match Ipc.next dec with
          | Some p ->
              out := p :: !out;
              drain ()
          | None -> ()
        in
        drain ();
        pump ()
  in
  pump ();
  Unix.close rfd;
  check_string_list "frames round-trip across split reads" payloads
    (List.rev !out);
  check_bool "no torn tail" false (Ipc.pending dec)

(* --- clock ------------------------------------------------------------------ *)

let test_clock_clamps () =
  let t = Telemetry.Clock.now () in
  check_bool "duration from the future clamps to zero" true
    (Telemetry.Clock.duration ~since:(t +. 1000.) = 0.);
  check_bool "now never decreases" true (Telemetry.Clock.now () >= t)

(* --- telemetry export / absorb ---------------------------------------------- *)

let test_export_absorb () =
  let a = Telemetry.create () in
  let b = Telemetry.create () in
  Telemetry.incr a "c" ~n:2;
  Telemetry.observe a "h" 0.001;
  Telemetry.incr b "c" ~n:3;
  Telemetry.observe b "h" 0.002;
  Telemetry.observe b "h" 0.004;
  Telemetry.absorb a (Telemetry.export b);
  check_int "counters add" 5 (Telemetry.counter a "c");
  let snap = Telemetry.snapshot a in
  let h = List.assoc "h" snap.Telemetry.snap_histograms in
  check_int "histogram counts add" 3 h.Telemetry.hs_count

(* --- cache crash-safety ----------------------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "swv_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    d

let cache_file dir key = Filename.concat dir (key ^ ".cache")

let read_all file = In_channel.with_open_bin file In_channel.input_all
let write_all file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)

let test_cache_corrupt_entry_is_miss () =
  let dir = fresh_dir () in
  let c = Cache.on_disk dir in
  Cache.store c ~key:"k" "payload";
  check_bool "stored entry found" true (Cache.find c ~key:"k" = Some "payload");
  (* Corrupt the file in place: a torn write truncates the payload below
     the length the header promises. *)
  let file = cache_file dir "k" in
  let whole = read_all file in
  write_all file (String.sub whole 0 (String.length whole - 4));
  (* A fresh handle forces the read through the disk layer — [c] still
     holds the payload in its in-memory table, as it should. *)
  let c2 = Cache.on_disk dir in
  let tele = Telemetry.create () in
  let dropped, recovered =
    Telemetry.with_registry tele (fun () ->
        let miss = Cache.find c2 ~key:"k" in
        (* Recovery: re-store overwrites the corrupt entry atomically. *)
        Cache.store c2 ~key:"k" "payload2";
        (miss, Cache.find (Cache.on_disk dir) ~key:"k"))
  in
  check_bool "corrupt entry is a miss" true (dropped = None);
  check_int "corrupt_dropped counted" 1 (Telemetry.counter tele "cache.corrupt_dropped");
  check_bool "re-store recovers" true (recovered = Some "payload2");
  (* Old-format files (no header) are also treated as corrupt. *)
  let oc = open_out_bin (cache_file dir "old") in
  output_string oc "raw-legacy-payload";
  close_out oc;
  check_bool "headerless entry is a miss" true (Cache.find c ~key:"old" = None)

(* A damaged payload of the right length must not reach [Marshal] (which
   may crash rather than raise on bad bytes): the header's digest turns it
   into a miss, and generation falls through to the solver. *)
let test_cache_flipped_byte_is_miss () =
  let dir = fresh_dir () in
  let enc =
    Symexec.encode Middleblock.program
      (Workload.generate ~seed:3 Middleblock.program Workload.small)
  in
  let goals = Packetgen.entry_coverage_goals enc in
  let first = Packetgen.generate ~cache:(Cache.on_disk dir) enc goals in
  let files =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".cache")
  in
  check_int "one entry stored" 1 (List.length files);
  let file = Filename.concat dir (List.hd files) in
  let raw = Bytes.of_string (read_all file) in
  let body = Bytes.index raw '\n' + 1 in
  let i = body + ((Bytes.length raw - body) / 2) in
  Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x55));
  write_all file (Bytes.to_string raw);
  let tele = Telemetry.create () in
  let again =
    Telemetry.with_registry tele (fun () ->
        Packetgen.generate ~cache:(Cache.on_disk dir) enc goals)
  in
  check_bool "flipped entry is a miss" false again.Packetgen.from_cache;
  check_int "corrupt_dropped counted" 1 (Telemetry.counter tele "cache.corrupt_dropped");
  check_bool "regenerated packets match" true
    (again.Packetgen.packets = first.Packetgen.packets)

let test_cache_atomic_store () =
  let dir = Filename.concat (fresh_dir ()) "nested/deeper" in
  let c = Cache.on_disk dir in
  Cache.store c ~key:"k" "v";
  check_bool "recursive directory creation" true (Sys.is_directory dir);
  (* No temporary files survive a successful store. *)
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> not (Filename.check_suffix f ".cache"))
  in
  check_string_list "no temp files left behind" [] leftovers;
  (* Directory creation is race-tolerant: a second cache on the same path
     must not fail. *)
  let c2 = Cache.on_disk dir in
  Cache.store c2 ~key:"k2" "v2";
  check_bool "second writer shares the directory" true
    (Cache.find c ~key:"k2" = Some "v2")

(* --- pool -------------------------------------------------------------------- *)

let test_pool_orders_results () =
  let result =
    Pool.run ~jobs:3 ~shards:7 (fun s -> Printf.sprintf "shard-%d" s)
  in
  check_int "no failures" 0 result.Pool.workers_failed;
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done p -> check_string "results indexed by shard" (Printf.sprintf "shard-%d" i) p
      | Pool.Lost r -> Alcotest.failf "shard %d lost: %s" i r)
    result.Pool.outcomes

let test_pool_worker_crash_degrades () =
  let tele = Telemetry.create () in
  let result =
    Telemetry.with_registry tele (fun () ->
        Pool.run ~jobs:4 ~shards:4 (fun s ->
            if s = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
            Printf.sprintf "ok-%d" s))
  in
  check_int "one worker failed" 1 result.Pool.workers_failed;
  check_int "failure counted" 1 (Telemetry.counter tele "parallel.workers_failed");
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 2, Pool.Lost _ -> ()
      | 2, Pool.Done _ -> Alcotest.fail "crashed shard reported Done"
      | i, Pool.Done p -> check_string "surviving shards intact" (Printf.sprintf "ok-%d" i) p
      | i, Pool.Lost r -> Alcotest.failf "healthy shard %d lost: %s" i r)
    result.Pool.outcomes

let test_pool_merges_histogram_buckets () =
  (* Sharded quantiles must match single-process: workers export full
     bucket contents (as deltas), not summaries, so the merged histogram
     is the one a sequential run would have built. *)
  let samples s = List.init 5 (fun i -> float_of_int ((s * 5) + i + 1) *. 1e-4) in
  let single = Telemetry.create () in
  List.iter
    (fun s -> List.iter (Telemetry.observe single "task.latency") (samples s))
    [ 0; 1; 2; 3 ];
  let tele = Telemetry.create () in
  let result =
    Telemetry.with_registry tele (fun () ->
        Pool.run ~jobs:4 ~shards:4 (fun s ->
            List.iter
              (Telemetry.observe (Telemetry.get ()) "task.latency")
              (samples s);
            "ok"))
  in
  check_int "no failures" 0 result.Pool.workers_failed;
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "p%02.0f matches single-process" (100. *. p))
        true
        (Telemetry.quantile tele "task.latency" p
        = Telemetry.quantile single "task.latency" p))
    [ 0.5; 0.9; 0.99 ];
  let summary t =
    List.assoc "task.latency" (Telemetry.snapshot t).Telemetry.snap_histograms
  in
  check_int "observation counts match" (summary single).Telemetry.hs_count
    (summary tele).Telemetry.hs_count

let test_pool_merges_worker_telemetry () =
  let tele = Telemetry.create () in
  let result =
    Telemetry.with_registry tele (fun () ->
        Pool.run ~jobs:2 ~shards:4 (fun s ->
            Telemetry.incr (Telemetry.get ()) "task.ticks" ~n:(s + 1);
            "ok"))
  in
  check_int "no failures" 0 result.Pool.workers_failed;
  (* 1 + 2 + 3 + 4, accumulated across worker processes. *)
  check_int "worker counters absorbed" 10 (Telemetry.counter tele "task.ticks")

(* --- campaign determinism ----------------------------------------------------- *)

let entries = Workload.generate ~seed:3 Middleblock.program Workload.small

let fault_where pred =
  List.find (fun (f : Fault.t) -> pred f.Fault.kind)
    (Catalogue.pins Middleblock.program entries)

let incident_json incidents = List.map Report.incident_ipc_to_json incidents

let test_control_sharded_matches_sequential () =
  let fault =
    fault_where (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let config =
    { Control_campaign.default_config with batches = 6; seed = 11; shards = 4 }
  in
  let run jobs = Control_campaign.run_sharded ~jobs mk config in
  let i1, s1 = run 1 in
  let i2, s2 = run 2 in
  let i4, s4 = run 4 in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "jobs=2 incidents identical" (incident_json i1) (incident_json i2);
  check_string_list "jobs=4 incidents identical" (incident_json i1) (incident_json i4);
  check_int "batch counts identical" s1.Report.cs_batches s4.Report.cs_batches;
  check_int "update counts identical" s1.Report.cs_updates s2.Report.cs_updates

let test_data_sharded_matches_sequential () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let config =
    { (Data_campaign.default_config entries) with shards = 4; test_packet_io = false }
  in
  let run jobs =
    let stack = Stack.create ~faults:[ fault ] Middleblock.program in
    Data_campaign.run ~jobs stack config
  in
  let i1, s1 = run 1 in
  let i4, s4 = run 4 in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "jobs=4 incidents identical" (incident_json i1) (incident_json i4);
  check_int "packets tested identical" s1.Report.ds_packets_tested
    s4.Report.ds_packets_tested;
  check_int "coverage identical" s1.Report.ds_covered s4.Report.ds_covered

(* The jobs × incremental matrix: goal slicing relies on generation
   results being a pure function of the goal list, and the incremental
   SMT pipeline relies on canonical models to be indistinguishable from
   per-goal scratch solving — so all four combinations must report the
   byte-identical campaign. *)
let test_data_jobs_incremental_matrix () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let run ~jobs ~incremental =
    let stack = Stack.create ~faults:[ fault ] Middleblock.program in
    let config =
      { (Data_campaign.default_config entries) with
        shards = 4; test_packet_io = false; incremental }
    in
    Data_campaign.run ~jobs stack config
  in
  let base_i, base_s = run ~jobs:1 ~incremental:true in
  check_bool "found something to compare" true (base_i <> []);
  List.iter
    (fun (jobs, incremental) ->
      let i, s = run ~jobs ~incremental in
      let label =
        Printf.sprintf "jobs=%d incremental=%b identical" jobs incremental
      in
      check_string_list label (incident_json base_i) (incident_json i);
      check_int (label ^ " coverage") base_s.Report.ds_covered s.Report.ds_covered;
      check_int
        (label ^ " uncoverable")
        base_s.Report.ds_uncoverable s.Report.ds_uncoverable)
    [ (1, false); (4, true); (4, false) ]

let test_harness_report_identical_across_jobs () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let config jobs =
    { (Harness.default_config entries) with
      control = { Control_campaign.default_config with batches = 2; seed = 7; shards = 4 };
      fuzzed_data_pass = true;
      jobs;
      data_shards = 4 }
  in
  let r1 = Harness.validate mk (config 1) in
  let r4 = Harness.validate mk (config 4) in
  check_string_list "control incidents identical"
    (incident_json r1.Report.control_incidents)
    (incident_json r4.Report.control_incidents);
  check_string_list "data incidents identical"
    (incident_json r1.Report.data_incidents)
    (incident_json r4.Report.data_incidents);
  let cluster_sigs r =
    match r.Report.clusters with
    | None -> []
    | Some cs ->
        List.map
          (fun (c : Report.cluster) -> Printf.sprintf "%s x%d" c.cl_fingerprint c.cl_count)
          cs
  in
  check_string_list "clusters identical" (cluster_sigs r1) (cluster_sigs r4);
  check_bool "incidents present" true (Report.incidents r1 <> [])

(* The coverage map is built from plain counters absorbed across workers,
   and shard decomposition is jobs-invariant, so the canonical text form
   must be byte-identical for any [--jobs]. [make check-obs] re-checks the
   same property end-to-end through the CLI with [cmp]. *)
let test_coverage_map_identical_across_jobs () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let run jobs =
    let config =
      { (Harness.default_config entries) with
        control =
          { Control_campaign.default_config with batches = 2; seed = 7; shards = 4 };
        jobs;
        data_shards = 4 }
    in
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () -> Harness.validate mk config)
  in
  let cov_text r =
    match r.Report.coverage with
    | Some c -> Switchv_obs.Coverage.to_string c
    | None -> Alcotest.fail "report carries no coverage map"
  in
  let r1 = run 1 in
  let r4 = run 4 in
  (match r1.Report.coverage with
  | Some c -> check_bool "edges covered" true (c.Switchv_obs.Coverage.covered > 0)
  | None -> Alcotest.fail "report carries no coverage map");
  check_string "coverage map byte-identical jobs=1 vs jobs=4" (cov_text r1)
    (cov_text r4)

let () =
  Alcotest.run "parallel"
    [ ( "shard",
        [ Alcotest.test_case "counts" `Quick test_shard_counts;
          Alcotest.test_case "partition" `Quick test_shard_partition;
          Alcotest.test_case "assignment" `Quick test_shard_assignment ] );
      ( "ipc",
        [ Alcotest.test_case "split frames" `Quick test_ipc_split_frames ] );
      ( "clock",
        [ Alcotest.test_case "clamps" `Quick test_clock_clamps ] );
      ( "telemetry merge",
        [ Alcotest.test_case "export/absorb" `Quick test_export_absorb ] );
      ( "cache",
        [ Alcotest.test_case "corrupt entry is a miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "flipped payload byte is a miss" `Quick
            test_cache_flipped_byte_is_miss;
          Alcotest.test_case "atomic store + racy mkdir" `Quick
            test_cache_atomic_store ] );
      ( "pool",
        [ Alcotest.test_case "results ordered by shard" `Quick
            test_pool_orders_results;
          Alcotest.test_case "worker crash degrades" `Quick
            test_pool_worker_crash_degrades;
          Alcotest.test_case "worker telemetry absorbed" `Quick
            test_pool_merges_worker_telemetry;
          Alcotest.test_case "sharded quantiles match single-process" `Quick
            test_pool_merges_histogram_buckets ] );
      ( "determinism",
        [ Alcotest.test_case "control campaign" `Quick
            test_control_sharded_matches_sequential;
          Alcotest.test_case "data campaign" `Quick
            test_data_sharded_matches_sequential;
          Alcotest.test_case "jobs x incremental matrix" `Quick
            test_data_jobs_incremental_matrix;
          Alcotest.test_case "harness report" `Quick
            test_harness_report_identical_across_jobs;
          Alcotest.test_case "coverage map" `Quick
            test_coverage_map_identical_across_jobs ] ) ]
