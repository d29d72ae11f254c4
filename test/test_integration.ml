(* End-to-end integration tests of SwitchV: soundness on clean switches
   (zero incidents across all role models), completeness per fault family,
   the trivial test suite, and campaign statistics. *)


module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Workload = Switchv_sai.Workload
module Middleblock = Switchv_sai.Middleblock
module Tor = Switchv_sai.Tor
module Wan = Switchv_sai.Wan
module Cerberus = Switchv_sai.Cerberus
module Harness = Switchv_core.Harness
module Report = Switchv_core.Report
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Trivial_suite = Switchv_core.Trivial_suite
module Packet = Switchv_packet.Packet
module Catalogue = Switchv_switch.Catalogue
module Evaluator = Switchv_bmv2.Evaluator
module Compile = Switchv_bmv2.Compile
module Corpus = Switchv_triage.Corpus

let check_bool = Alcotest.check Alcotest.bool

let quick_control =
  { Control_campaign.default_config with batches = 2; seed = 5 }

let harness_config program =
  let entries = Workload.generate ~seed:8 program Workload.small in
  { (Harness.default_config entries) with control = quick_control }

let fault ?(component = Fault.P4runtime_server) kind =
  Fault.make ~id:"IT" ~component kind "integration test fault"

(* --- soundness: no false positives ------------------------------------------------ *)

let soundness program () =
  let config = harness_config program in
  let report = Harness.validate (fun () -> Stack.create program) config in
  if not (Report.clean report) then
    Alcotest.failf "false positives on a clean switch: %s"
      (Format.asprintf "%a" Report.pp report)

(* Soundness as a property: across random seeds (different workloads and
   fuzz streams), a clean switch never produces incidents. *)
let prop_soundness_random_seeds =
  QCheck.Test.make ~name:"clean switch silent across random seeds" ~count:5
    (QCheck.make QCheck.Gen.(int_bound 0xFFFF) ~print:string_of_int)
    (fun seed ->
      let entries = Workload.generate ~seed Middleblock.program Workload.small in
      let config =
        { (Harness.default_config entries) with
          control = { Control_campaign.default_config with batches = 2; seed } }
      in
      Report.clean (Harness.validate (fun () -> Stack.create Middleblock.program) config))

(* --- completeness: each fault family detected by the right detector ---------------- *)

let detect program f =
  let config = harness_config program in
  Harness.detect (fun () -> Stack.create ~faults:[ f ] program) config

let expect_fuzzer name kind () =
  match detect Middleblock.program (fault kind) with
  | Some Report.Fuzzer -> ()
  | Some d ->
      Alcotest.failf "%s found by %s, expected fuzzer" name
        (Report.detector_to_string d)
  | None -> Alcotest.failf "%s not detected" name

let expect_symbolic name kind () =
  match detect Middleblock.program (fault kind) with
  | Some Report.Symbolic -> ()
  | Some d ->
      Alcotest.failf "%s found by %s, expected symbolic" name
        (Report.detector_to_string d)
  | None -> Alcotest.failf "%s not detected" name

(* --- trivial suite ------------------------------------------------------------------ *)

let test_trivial_clean_passes () =
  let results = Trivial_suite.run_all (Stack.create Middleblock.program) in
  List.iter
    (fun (t, ok) ->
      check_bool (Fault.trivial_test_to_string t ^ " passes on clean switch") true ok)
    results;
  check_bool "run reports no failure" true
    (Trivial_suite.run (Stack.create Middleblock.program) = None)

let test_trivial_clean_all_roles () =
  List.iter
    (fun program ->
      check_bool "clean switch passes" true
        (Trivial_suite.run (Stack.create program) = None))
    [ Tor.program; Wan.program; Cerberus.program ]

let test_trivial_attribution () =
  let first kind = Trivial_suite.run (Stack.create ~faults:[ fault kind ] Middleblock.program) in
  check_bool "p4info fault -> Set P4Info" true
    (first Fault.P4info_push_fails = Some Fault.Set_p4info);
  check_bool "reject fault -> Table entry programming" true
    (first (Fault.Reject_valid_insert "vrf_table") = Some Fault.Table_entry_programming);
  check_bool "read fault -> Read all tables" true
    (first (Fault.Read_drops_table "vrf_table") = Some Fault.Read_all_tables);
  check_bool "punt-loss fault -> Packet-in" true
    (first Fault.Punt_lost = Some Fault.Packet_in);
  check_bool "packet-out fault -> Packet-out" true
    (first Fault.Packet_out_punted_back = Some Fault.Packet_out);
  check_bool "route sync fault -> Packet forwarding" true
    (first (Fault.Syncd_drops_table "ipv4_table") = Some Fault.Packet_forwarding);
  check_bool "subtle fault -> not found" true
    (first (Fault.Modify_keeps_old_args "ipv4_table") = None)

(* --- campaign statistics -------------------------------------------------------------- *)

let test_report_statistics () =
  let config = harness_config Middleblock.program in
  let report = Harness.validate (fun () -> Stack.create Middleblock.program) config in
  (match report.control_stats with
  | Some s ->
      check_bool "fuzzed updates counted" true (s.cs_updates > 100);
      check_bool "both valid and invalid generated" true
        (s.cs_valid_updates > 0 && s.cs_invalid_updates > 0)
  | None -> Alcotest.fail "missing control stats");
  match report.data_stats with
  | Some s ->
      check_bool "entries installed" true (s.ds_entries_installed > 40);
      check_bool "most goals covered" true (s.ds_covered * 2 > s.ds_goals);
      check_bool "packets tested" true (s.ds_packets_tested > 40)
  | None -> Alcotest.fail "missing data stats"

let test_fuzzed_data_pass () =
  (* §7 extension: the fuzzer's surviving entries feed a second symbolic
     pass. Must stay silent on a clean switch, and still detects data-plane
     faults reachable only through fuzzed state. *)
  let config =
    { (harness_config Middleblock.program) with fuzzed_data_pass = true }
  in
  let clean = Harness.validate (fun () -> Stack.create Middleblock.program) config in
  if not (Report.clean clean) then
    Alcotest.failf "fuzzed-entry pass false positives: %s"
      (Format.asprintf "%a" Report.pp clean);
  match
    Harness.detect
      (fun () ->
        Stack.create
          ~faults:[ fault ~component:Fault.Syncd (Fault.Syncd_drops_table "ipv4_table") ]
          Middleblock.program)
      config
  with
  | Some _ -> ()
  | None -> Alcotest.fail "fault undetected with fuzzed-entry pass enabled"

let test_cache_shared_across_campaigns () =
  let entries = Workload.generate ~seed:8 Middleblock.program Workload.small in
  let cache = Switchv_symbolic.Cache.in_memory () in
  let config =
    { (Harness.default_config entries) with control = quick_control; cache = Some cache }
  in
  let r1 = Harness.validate (fun () -> Stack.create Middleblock.program) config in
  let r2 = Harness.validate (fun () -> Stack.create Middleblock.program) config in
  let s1 = Option.get r1.data_stats and s2 = Option.get r2.data_stats in
  check_bool "first run not cached" true
    (s1.ds_cache_hits = 0 && s1.ds_cache_misses > 0);
  check_bool "second run cached" true (s2.ds_cache_hits > 0 && s2.ds_cache_misses = 0)

(* --- evaluator equivalence ------------------------------------------------------- *)

(* The evaluator is chosen once, where the stacks are built, and every model
   run of the campaign follows it: a seeded-fault validation over
   interpreted stacks must report exactly what one over compiled stacks
   reports — incidents, clusters and archived corpus lines. *)
let test_evaluator_equivalence () =
  let program = Middleblock.program in
  let config = harness_config program in
  let faults =
    Result.get_ok (Catalogue.resolve program config.data_entries [ "PINS-019" ])
  in
  let observe evaluator =
    let report =
      Harness.validate (fun () -> Stack.create ~faults ~evaluator program) config
    in
    let incidents = Report.incidents report in
    ( List.map (Format.asprintf "%a" Report.pp_incident) incidents,
      List.map
        (fun (c : Report.cluster) -> (c.cl_fingerprint, c.cl_count))
        report.clusters,
      List.map Corpus.record_to_json (Harness.corpus_records report faults) )
  in
  let c_incidents, c_clusters, c_corpus = observe Compile.evaluator in
  let i_incidents, i_clusters, i_corpus = observe Evaluator.interpreted in
  check_bool "the seeded fault is reported" true (c_corpus <> []);
  Alcotest.(check (list string)) "incidents" c_incidents i_incidents;
  Alcotest.(check (list (pair string int))) "clusters" c_clusters i_clusters;
  Alcotest.(check (list string)) "corpus lines" c_corpus i_corpus

let () =
  Alcotest.run "integration"
    [ ("soundness",
       [ Alcotest.test_case "middleblock clean" `Slow (soundness Middleblock.program);
         Alcotest.test_case "tor clean" `Slow (soundness Tor.program);
         Alcotest.test_case "wan clean" `Slow (soundness Wan.program);
         Alcotest.test_case "cerberus clean" `Slow (soundness Cerberus.program);
         QCheck_alcotest.to_alcotest prop_soundness_random_seeds ]);
      ("completeness (fuzzer)",
       [ Alcotest.test_case "constraint violation accepted" `Slow
           (expect_fuzzer "accept-constraint" (Fault.Accept_constraint_violation "vrf_table"));
         Alcotest.test_case "dangling reference accepted" `Slow
           (expect_fuzzer "accept-dangling" (Fault.Accept_dangling_reference "ipv4_table"));
         Alcotest.test_case "valid insert rejected" `Slow
           (expect_fuzzer "reject-valid" (Fault.Reject_valid_insert "acl_ingress_table"));
         Alcotest.test_case "read drops table" `Slow
           (expect_fuzzer "read-drops" (Fault.Read_drops_table "acl_ingress_table"));
         Alcotest.test_case "modify keeps old args" `Slow
           (expect_fuzzer "modify-keeps" (Fault.Modify_keeps_old_args "ipv4_table"));
         Alcotest.test_case "batch fails on missing delete" `Slow
           (expect_fuzzer "batch-fails" Fault.Delete_nonexistent_fails_batch) ]);
      ("completeness (symbolic)",
       [ Alcotest.test_case "entries dropped by sync layer" `Slow
           (expect_symbolic "syncd-drops" (Fault.Syncd_drops_table "ipv4_table"));
         Alcotest.test_case "ttl trap" `Slow (expect_symbolic "ttl-trap" Fault.Ttl_trap_always);
         Alcotest.test_case "spurious punt" `Slow
           (expect_symbolic "punt" (Fault.Punt_ether_type 0x88CC));
         Alcotest.test_case "mirror ignored" `Slow
           (expect_symbolic "mirror" Fault.Mirror_ignored);
         Alcotest.test_case "packet-out punted back" `Slow
           (expect_symbolic "pktout" Fault.Packet_out_punted_back) ]);
      ("trivial suite",
       [ Alcotest.test_case "clean passes" `Quick test_trivial_clean_passes;
         Alcotest.test_case "all roles pass" `Quick test_trivial_clean_all_roles;
         Alcotest.test_case "attribution" `Quick test_trivial_attribution ]);
      ("statistics",
       [ Alcotest.test_case "report statistics" `Slow test_report_statistics;
         Alcotest.test_case "fuzzed-entry data pass" `Slow test_fuzzed_data_pass;
         Alcotest.test_case "shared cache" `Slow test_cache_shared_across_campaigns;
         Alcotest.test_case "interpreted = compiled" `Slow test_evaluator_equivalence ]) ]
