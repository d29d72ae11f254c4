(* The SwitchV evaluation harness: regenerates every table and figure of
   the paper's evaluation (§6), plus ablation benches for the design
   choices called out in DESIGN.md and a bechamel micro-benchmark suite.

     dune exec bench/main.exe              # everything except micro
     dune exec bench/main.exe -- table1    # a single artifact
     dune exec bench/main.exe -- table1 table2 table3 figure7 ablations micro
     dune exec bench/main.exe -- quick     # reduced scale (CI-sized)

   Absolute numbers differ from the paper (simulated switch + our own SMT
   solver vs. a hardware testbed + Z3); the shapes are the reproduction
   target. Paper values are printed alongside for comparison. *)

module Middleblock = Switchv_sai.Middleblock
module Wan = Switchv_sai.Wan
module Cerberus = Switchv_sai.Cerberus
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Harness = Switchv_core.Harness
module Report = Switchv_core.Report
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Fabric_campaign = Switchv_core.Fabric_campaign
module Topo = Switchv_topo.Topo
module Routes = Switchv_topo.Routes
module Trivial_suite = Switchv_core.Trivial_suite
module Cache = Switchv_symbolic.Cache
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Fuzzer = Switchv_fuzzer.Fuzzer
module Oracle = Switchv_oracle.Oracle
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Evaluator = Switchv_bmv2.Evaluator
module P4info = Switchv_p4ir.P4info
module Validate = Switchv_p4runtime.Validate
module Request = Switchv_p4runtime.Request
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Rng = Switchv_bitvec.Rng
module Bitvec = Switchv_bitvec.Bitvec
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro

let quick = ref false

let banner title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let now () = Telemetry.Clock.now ()

(* ------------------------------------------------------------------ *)
(* Shared detection machinery for Table 1 / Table 2 / Figure 7         *)
(* ------------------------------------------------------------------ *)

type stack_kind = Pins | Cerb

let program_of = function Pins -> Middleblock.program | Cerb -> Cerberus.program

let workload_of kind =
  let profile =
    match (kind, !quick) with
    | _, true -> Workload.small
    | Pins, false -> Workload.scaled 0.25 Workload.inst1
    | Cerb, false -> Workload.scaled 0.25 Workload.inst2
  in
  Workload.generate ~seed:42 (program_of kind) profile

let catalogue_of kind entries =
  match kind with
  | Pins -> Catalogue.pins (program_of kind) entries
  | Cerb -> Catalogue.cerberus (program_of kind) entries

type detection = {
  fault : Fault.t;
  found_by : Report.detector option;
  trivial : Fault.trivial_test option;   (* first trivial test that fails *)
}

(* Memoised per stack kind so table1/table2/figure7 share one pass. *)
let detections_memo : (stack_kind, detection list) Hashtbl.t = Hashtbl.create 2

let detections kind =
  match Hashtbl.find_opt detections_memo kind with
  | Some d -> d
  | None ->
      let program = program_of kind in
      let entries = workload_of kind in
      let faults = catalogue_of kind entries in
      let cache = Cache.in_memory () in
      let control_config =
        { Control_campaign.default_config with
          batches = (if !quick then 2 else 4);
          seed = 99 }
      in
      let harness_config =
        { (Harness.default_config entries) with
          control = control_config;
          cache = Some cache }
      in
      let total = List.length faults in
      let t0 = now () in
      let results =
        List.mapi
          (fun i fault ->
            if i mod 20 = 0 then
              Printf.printf "  ... campaign %d/%d (%.0fs elapsed)\n%!" i total
                (now () -. t0);
            let mk () = Stack.create ~faults:[ fault ] program in
            let found_by = Harness.detect mk harness_config in
            let trivial = Trivial_suite.run (mk ()) in
            { fault; found_by; trivial })
          faults
      in
      Printf.printf "  %d campaigns in %.1fs\n%!" total (now () -. t0);
      Hashtbl.replace detections_memo kind results;
      results

(* ------------------------------------------------------------------ *)
(* Table 1: bugs found by component                                    *)
(* ------------------------------------------------------------------ *)

let pins_components =
  [ Fault.P4runtime_server; Fault.Gnmi; Fault.Orchestration_agent; Fault.Syncd;
    Fault.Switch_linux; Fault.Hardware; Fault.P4_toolchain; Fault.Input_p4_program ]

let cerb_components =
  [ Fault.Vendor_software; Fault.Hardware; Fault.Input_p4_program;
    Fault.Bmv2_simulator ]

(* Paper's Table 1 values: (component, total, fuzzer, symbolic). *)
let paper_table1_pins =
  [ ("P4Runtime Server", 47, 11, 36); ("gNMI", 2, 0, 2);
    ("Orchestration Agent", 24, 12, 11); ("SyncD Binary", 23, 10, 13);
    ("Switch Linux", 9, 0, 9); ("Hardware", 1, 1, 0); ("P4 Toolchain", 2, 1, 1);
    ("Input P4 Program", 15, 2, 13) ]

let paper_table1_cerb =
  [ ("Switch software", 24, 14, 10); ("Hardware", 1, 0, 1);
    ("Input P4 Program", 3, 0, 3); ("BMv2 P4 Simulator", 4, 4, 0) ]

let print_table1_for kind title components paper =
  let results = detections kind in
  Printf.printf "\n%s\n" title;
  Printf.printf "%-22s | %17s | %23s\n" "" "measured" "paper";
  Printf.printf "%-22s | %5s %6s %4s | %5s %6s %4s %6s\n" "Component" "found"
    "fuzzer" "symb" "bugs" "fuzzer" "symb" "seeded";
  Printf.printf "%s\n" (String.make 78 '-');
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun component ->
      let of_component =
        List.filter (fun d -> d.fault.Fault.component = component) results
      in
      let seeded = List.length of_component in
      let fuzzer =
        List.length
          (List.filter (fun d -> d.found_by = Some Report.Fuzzer) of_component)
      in
      let symbolic =
        List.length
          (List.filter (fun d -> d.found_by = Some Report.Symbolic) of_component)
      in
      let name = Fault.component_to_string component in
      let pb, pf, ps =
        match List.find_opt (fun (n, _, _, _) -> n = name) paper with
        | Some (_, b, f, s) -> (b, f, s)
        | None -> (0, 0, 0)
      in
      let tf, tu, ts, tt = !totals in
      totals := (tf + fuzzer + symbolic, tu + fuzzer, ts + symbolic, tt + seeded);
      Printf.printf "%-22s | %5d %6d %4d | %5d %6d %4d %6d\n" name
        (fuzzer + symbolic) fuzzer symbolic pb pf ps seeded)
    components;
  let found, fz, sy, seeded = !totals in
  Printf.printf "%s\n" (String.make 78 '-');
  let paper_total, paper_fz, paper_sy =
    List.fold_left (fun (a, b, c) (_, x, y, z) -> (a + x, b + y, c + z)) (0, 0, 0) paper
  in
  Printf.printf "%-22s | %5d %6d %4d | %5d %6d %4d %6d\n" "Total" found fz sy
    paper_total paper_fz paper_sy seeded;
  let missed = List.filter (fun d -> d.found_by = None) results in
  if missed <> [] then begin
    Printf.printf "\nundetected seeded faults (%d):\n" (List.length missed);
    List.iter (fun d -> Format.printf "  %a@." Fault.pp d.fault) missed
  end

let table1 () =
  banner "Table 1: Bugs found by SwitchV by component";
  print_table1_for Pins "PINS" pins_components paper_table1_pins;
  print_table1_for Cerb "Cerberus" cerb_components paper_table1_cerb;
  print_endline
    "\nNote: the paper's PINS component column sums to 123 while its detector\n\
     columns sum to 122 (47+2+24+23+9+1+2+15 = 123 vs 37+85 = 122); our\n\
     catalogue follows the detector-consistent total of 122."

(* ------------------------------------------------------------------ *)
(* Table 2: which bugs the trivial test suite finds                    *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [ ("Set P4Info", 22, 0); ("Table entry programming", 15, 0);
    ("Read all tables", 10, 2); ("Packet-in", 12, 4); ("Packet-out", 4, 1);
    ("Packet forwarding", 0, 0); ("Not found by any test above", 60, 25) ]

let table2 () =
  banner "Table 2: Bugs findable by the trivial test suite";
  let count kind =
    let results = detections kind in
    (* Restrict to bugs SwitchV found, as the paper does. *)
    let found = List.filter (fun d -> d.found_by <> None) results in
    let by_test test =
      List.length (List.filter (fun d -> d.trivial = Some test) found)
    in
    let none = List.length (List.filter (fun d -> d.trivial = None) found) in
    (List.map by_test Fault.trivial_tests @ [ none ], List.length found)
  in
  let pins_counts, pins_total = count Pins in
  let cerb_counts, cerb_total = count Cerb in
  Printf.printf "%-30s | %13s | %13s | %13s\n" "Test" "PINS" "Cerberus" "paper (P/C)";
  Printf.printf "%s\n" (String.make 80 '-');
  let labels =
    List.map Fault.trivial_test_to_string Fault.trivial_tests
    @ [ "Not found by any test above" ]
  in
  List.iteri
    (fun i label ->
      let p = List.nth pins_counts i and c = List.nth cerb_counts i in
      let paper_p, paper_c =
        match List.find_opt (fun (n, _, _) -> n = label) paper_table2 with
        | Some (_, x, y) -> (x, y)
        | None -> (0, 0)
      in
      Printf.printf "%-30s | %4d (%3.0f%%)   | %4d (%3.0f%%)   | %3d%% / %3d%%\n" label p
        (100. *. float_of_int p /. float_of_int (max 1 pins_total))
        c
        (100. *. float_of_int c /. float_of_int (max 1 cerb_total))
        (100 * paper_p / 122) (100 * paper_c / 32))
    labels;
  Printf.printf "(over %d PINS and %d Cerberus bugs found by SwitchV)\n" pins_total
    cerb_total

(* ------------------------------------------------------------------ *)
(* Table 3: performance of p4-symbolic and p4-fuzzer                   *)
(* ------------------------------------------------------------------ *)

let table3_symbolic name program profile =
  let entries = Workload.generate ~seed:5 program profile in
  let stack () =
    let s = Stack.create program in
    ignore (Stack.push_p4info s);
    s
  in
  let cache = Cache.in_memory () in
  let run c =
    let config =
      { (Data_campaign.default_config entries) with
        cache = c;
        max_incidents = 1000;
        extra_goals = Data_campaign.exploratory_goals }
    in
    Data_campaign.run ~push_p4info:false (stack ()) config
  in
  let incidents_cold, stats_cold = run (Some cache) in
  let incidents_warm, stats_warm = run (Some cache) in
  assert (incidents_cold = [] && incidents_warm = []);
  (name, List.length entries, stats_cold, stats_warm)

let table3 () =
  banner "Table 3: time to run p4-symbolic and p4-fuzzer";
  let scale = if !quick then 0.1 else 1.0 in
  let rows =
    [ table3_symbolic "Inst1 (middleblock)" Middleblock.program
        (Workload.scaled scale Workload.inst1);
      table3_symbolic "Inst2 (WAN)" Wan.program (Workload.scaled scale Workload.inst2) ]
  in
  Printf.printf "%-20s %8s %20s %9s   %s\n" "P4 Prog." "Entries" "Generation (w/c)"
    "Testing" "paper: gen (w/c) / testing";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iteri
    (fun i (name, entries, (cold : Report.data_stats), (warm : Report.data_stats)) ->
      let paper = if i = 0 then "413s (14s) / 58s" else "1099s (6s) / 64s" in
      Printf.printf "%-20s %8d %10.2fs (%.2fs) %8.2fs   %s\n" name entries
        cold.ds_generation_time warm.ds_generation_time cold.ds_testing_time paper;
      Printf.printf "%-20s %8s   goals %d, covered %d, uncoverable %d%s\n" "" ""
        cold.ds_goals cold.ds_covered cold.ds_uncoverable
        (if warm.ds_cache_hits > 0 then "  [second run served from cache]" else ""))
    rows;
  (* Fuzzer throughput. *)
  Printf.printf "\n%-20s %15s %10s   %s\n" "P4 Prog." "Fuzzed Entries" "Entries/s"
    "paper";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (name, program) ->
      let stack = Stack.create program in
      ignore (Stack.push_p4info stack);
      let fuzzer = Fuzzer.create (Stack.info stack) (Rng.create 77) in
      let oracle = Oracle.create (Stack.info stack) in
      let batches = if !quick then 20 else 1000 in
      let n = ref 0 in
      let t0 = now () in
      for _ = 1 to batches do
        let annotated = Fuzzer.next_batch fuzzer in
        let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
        n := !n + List.length updates;
        let resp = Stack.write stack { Request.updates } in
        let read_back = Stack.read stack in
        ignore (Oracle.judge_batch oracle updates resp ~read_back)
      done;
      let dt = now () -. t0 in
      Printf.printf "%-20s %15d %10.0f   ~50000 at ~97/s\n" name !n
        (float_of_int !n /. dt))
    [ ("Inst1 (middleblock)", Middleblock.program); ("Inst2 (WAN)", Wan.program) ]

(* ------------------------------------------------------------------ *)
(* Figure 7: days to bug resolution                                    *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  banner "Figure 7: days to resolution of PINS bugs found by SwitchV";
  let results = detections Pins in
  let found = List.filter (fun d -> d.found_by <> None) results in
  let buckets =
    [ ("0-3", 0, 3); ("3-6", 3, 6); ("6-10", 6, 10); ("10-15", 10, 15);
      ("15-20", 15, 20); ("20-25", 20, 25); ("25-30", 25, 30); ("30-60", 30, 60);
      ("60-90", 60, 90); ("90-120", 90, 120); ("120-150", 120, 150);
      (">=150", 150, max_int) ]
  in
  Printf.printf "%-8s | %-42s | total symb fuzz\n" "days" "";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun (label, lo, hi) ->
      let in_bucket detector =
        List.length
          (List.filter
             (fun d ->
               (match detector with None -> true | Some det -> d.found_by = Some det)
               &&
               match d.fault.Fault.days_to_resolution with
               | Some days -> days >= lo && days < hi
               | None -> false)
             found)
      in
      let total = in_bucket None in
      let symb = in_bucket (Some Report.Symbolic) in
      let fuzz = in_bucket (Some Report.Fuzzer) in
      Printf.printf "%-8s | %-42s | %5d %4d %4d\n" label
        (String.make (min 42 total) '#') total symb fuzz)
    buckets;
  let unresolved =
    List.length
      (List.filter (fun d -> d.fault.Fault.days_to_resolution = None) found)
  in
  Printf.printf "unresolved: %d (paper: 9)\n" unresolved;
  let resolved_days =
    List.filter_map (fun d -> d.fault.Fault.days_to_resolution) found
  in
  let within n =
    100
    * List.length (List.filter (fun d -> d <= n) resolved_days)
    / max 1 (List.length found)
  in
  Printf.printf
    "fixed within 14 days: %d%% (paper: majority); within 5 days: %d%% (paper: 33%%)\n"
    (within 14) (within 5)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_traces () =
  banner "Ablation: guarded single-pass encoding vs. per-trace enumeration (§5)";
  Printf.printf
    "Trace enumeration cost is the product of per-table branch counts; the\n\
     guarded encoding is linear in the number of entries (paper: three\n\
     100-entry tables => 10^6 traces).\n\n";
  Printf.printf "%8s | %14s | %12s | %10s\n" "entries" "traces (enum.)"
    "trace points" "solve time";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun factor ->
      let profile = Workload.scaled factor Workload.inst1 in
      let entries = Workload.generate ~seed:5 Middleblock.program profile in
      let t0 = now () in
      let enc = Symexec.encode Middleblock.program entries in
      let goals = Packetgen.entry_coverage_goals enc in
      let result = Packetgen.generate enc goals in
      let dt = now () -. t0 in
      ignore result;
      (* #traces = product over tables of (entries + default) *)
      let per_table = Hashtbl.create 16 in
      List.iter
        (fun (e : Entry.t) ->
          Hashtbl.replace per_table e.e_table
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_table e.e_table)))
        entries;
      let log_traces =
        Hashtbl.fold (fun _ n acc -> acc +. log10 (float_of_int (n + 1))) per_table 0.
      in
      Printf.printf "%8d | %11s    | %12d | %8.2fs\n" (List.length entries)
        (Printf.sprintf "10^%.1f" log_traces)
        (List.length enc.enc_trace) dt)
    (if !quick then [ 0.05; 0.1 ] else [ 0.1; 0.25; 0.5; 1.0 ])

let ablation_mutations () =
  banner "Ablation: mutation-based vs. naive random invalid requests (§4.2)";
  Printf.printf
    "Depth = how far into the switch's validation pipeline a request gets\n\
     (0 = unknown table ... 4 = state-dependent checks, 5 = actually valid).\n\
     Naive random requests die at the first checks (the paper's motivation\n\
     for curated mutations).\n\n";
  let info = Middleblock.info in
  let depth_of (e : Entry.t) state =
    match Validate.syntactic info e with
    | Error s ->
        let m = s.Status.message in
        let has sub =
          let ls = String.length sub and lm = String.length m in
          let rec go i = i + ls <= lm && (String.sub m i ls = sub || go (i + 1)) in
          go 0
        in
        if has "unknown table" then 0
        else if has "no match field" || has "does not permit action" then 1
        else 2
    | Ok () -> (
        match Validate.check_entry info e with
        | Error _ -> 3 (* constraint violation *)
        | Ok () -> (
            match
              Validate.check_references info e ~exists:(fun ~table ~key value ->
                  State.exists_value state ~table ~key value)
            with
            | Error _ -> 4
            | Ok () -> 5))
  in
  let state = State.create () in
  List.iter
    (fun e -> ignore (State.insert state e))
    (Workload.generate ~seed:6 Middleblock.program Workload.small);
  let n = if !quick then 300 else 2000 in
  let histogram label gen =
    let counts = Array.make 6 0 in
    let rng = Rng.create 31 in
    let produced = ref 0 in
    while !produced < n do
      match gen rng with
      | Some e ->
          incr produced;
          let d = depth_of e state in
          counts.(d) <- counts.(d) + 1
      | None -> ()
    done;
    Printf.printf "%-18s" label;
    Array.iteri
      (fun i c ->
        Printf.printf "  d%d: %4.1f%%" i (100. *. float_of_int c /. float_of_int n))
      counts;
    print_newline ()
  in
  let tables = List.map (fun (ti : P4info.table) -> ti.ti_name) info.pi_tables in
  let naive rng =
    let table =
      if Rng.int rng 2 = 0 then Printf.sprintf "table_%d" (Rng.int rng 100)
      else Rng.choose rng tables
    in
    let matches =
      List.init (Rng.int rng 3) (fun i ->
          { Entry.fm_field = Printf.sprintf "field_%d" i;
            fm_value = Entry.M_exact (Rng.bitvec rng (1 + Rng.int rng 64)) })
    in
    Some
      (Entry.make ~priority:(Rng.int rng 3) ~table ~matches
         (Entry.Single
            { ai_name = Printf.sprintf "action_%d" (Rng.int rng 100);
              ai_args = [ Rng.bitvec rng 16 ] }))
  in
  let fuzzer = Fuzzer.create info (Rng.create 8) in
  for _ = 1 to 10 do ignore (Fuzzer.next_batch fuzzer) done;
  let pending : Entry.t list ref = ref [] in
  let mutation _rng =
    (match !pending with
    | [] ->
        pending :=
          List.filter_map
            (fun (a : Fuzzer.annotated_update) ->
              if a.mutation <> None then Some a.update.entry else None)
            (Fuzzer.next_batch fuzzer)
    | _ -> ());
    match !pending with
    | e :: rest ->
        pending := rest;
        Some e
    | [] -> None
  in
  histogram "naive random" naive;
  histogram "mutation-based" mutation

let ablation_batching () =
  banner "Ablation: @refers_to-aware batching vs. naive batching (§4.4)";
  Printf.printf
    "Naive batches contain internal dependencies, so a correct switch's\n\
     order-dependent outcomes look like violations to the oracle: false\n\
     positives on a bug-free switch.\n\n";
  let run respect =
    let stack = Stack.create Middleblock.program in
    let config =
      { Control_campaign.default_config with
        batches = (if !quick then 10 else 40);
        fuzzer_config = { Fuzzer.default_config with respect_dependencies = respect };
        max_incidents = 10000;
        seed = 5 }
    in
    let incidents, stats = Control_campaign.run stack config in
    (List.length incidents, stats.cs_updates)
  in
  let dep_incidents, dep_updates = run true in
  let naive_incidents, naive_updates = run false in
  Printf.printf "%-28s %10s %10s\n" "" "incidents" "updates";
  Printf.printf
    "dependency-aware batching   %10d %10d  (must be 0: no false positives)\n"
    dep_incidents dep_updates;
  Printf.printf
    "naive batching              %10d %10d  (spurious reports on a clean switch)\n"
    naive_incidents naive_updates

let ablation_pruning () =
  banner "Ablation: analysis-driven goal pruning (lib/analysis)";
  Printf.printf
    "A statically-dead debug table is appended to the middleblock pipeline\n\
     (guarded by a metadata flag that is provably always zero), with two\n\
     installed entries. With pruning on, its coverage goals never reach\n\
     the SMT solver; the divergence verdict must be identical either way\n\
     because every pruned goal is provably uncoverable.\n\n";
  let module A = Switchv_p4ir.Ast in
  let program =
    let base = Middleblock.program in
    let debug_table =
      { A.t_name = "debug_table"; t_id = 999;
        t_keys =
          [ { A.k_name = "level"; k_expr = A.E_field (A.meta "debug_level");
              k_kind = A.Exact; k_refers_to = None } ];
        t_actions = [ "no_action" ]; t_default_action = ("no_action", []);
        t_size = 16; t_entry_restriction = None; t_selector = false }
    in
    { base with
      A.p_name = base.A.p_name ^ "_debug";
      p_metadata = base.A.p_metadata @ [ ("debug_level", 8) ];
      p_tables = base.A.p_tables @ [ debug_table ];
      p_ingress =
        A.C_seq
          ( base.A.p_ingress,
            A.C_if
              ( A.B_eq
                  ( A.E_field (A.meta "debug_level"),
                    A.E_const (Bitvec.of_int ~width:8 2) ),
                A.C_table "debug_table", A.C_nop ) ) }
  in
  Switchv_p4ir.Typecheck.check_exn program;
  let debug_entry level =
    Entry.make ~table:"debug_table"
      ~matches:
        [ { Entry.fm_field = "level";
            fm_value = Entry.M_exact (Bitvec.of_int ~width:8 level) } ]
      (Entry.Single { ai_name = "no_action"; ai_args = [] })
  in
  let entries =
    Workload.generate ~seed:7 program Workload.small
    @ [ debug_entry 1; debug_entry 2 ]
  in
  let tm = Telemetry.get () in
  let run prune =
    let stack = Stack.create program in
    let before = Telemetry.counter tm "analysis.goals_pruned" in
    let incidents, stats =
      Data_campaign.run stack
        { (Data_campaign.default_config entries) with
          prune_dead_goals = prune; test_packet_io = false }
    in
    (incidents, stats, Telemetry.counter tm "analysis.goals_pruned" - before)
  in
  let inc_on, stats_on, pruned_on = run true in
  let inc_off, stats_off, pruned_off = run false in
  Printf.printf "%-16s %8s %8s %12s %10s %8s\n" "" "goals" "pruned"
    "uncoverable" "incidents" "gen(s)";
  let row label (stats : Report.data_stats) incidents pruned =
    Printf.printf "%-16s %8d %8d %12d %10d %8.2f\n" label stats.ds_goals pruned
      stats.ds_uncoverable (List.length incidents) stats.ds_generation_time
  in
  row "pruning on" stats_on inc_on pruned_on;
  row "pruning off" stats_off inc_off pruned_off;
  Printf.printf
    "goals_pruned > 0 with pruning on: %b; identical incidents: %b\n"
    (pruned_on > 0) (inc_on = inc_off)

let ablations () =
  ablation_traces ();
  ablation_mutations ();
  ablation_batching ();
  ablation_pruning ()

(* ------------------------------------------------------------------ *)
(* SMT: incremental solving vs. per-goal scratch solvers               *)
(* ------------------------------------------------------------------ *)

let smt_incremental_bench () =
  banner "SMT: incremental packet generation vs. per-goal scratch solving";
  Printf.printf
    "Each fixture campaign's coverage goals are solved twice: once with the\n\
     incremental pipeline (one solver and one blast of the encoding, prefix\n\
     push/pop scopes, assumption deltas, learned clauses carried across the\n\
     goals of a group, the search state reset between groups) and once\n\
     re-bit-blasting every goal into a fresh solver. Canonical model\n\
     extraction makes the verdicts AND packet bytes byte-identical; the win\n\
     is solver work.\n\n";
  let tm = Telemetry.get () in
  let stat name stats = Option.value ~default:0 (List.assoc_opt name stats) in
  (* Span of each phase of a check (and of the asserts), and its key in the
     artifact. *)
  let phases =
    [ ("smt.assert", "incremental_assert_s");
      ("smt.blast", "incremental_blast_s");
      ("smt.search", "incremental_search_s");
      ("smt.model", "incremental_model_s") ]
  in
  let phase_sums () =
    let hists = (Telemetry.snapshot tm).Telemetry.snap_histograms in
    List.map
      (fun (name, _) ->
        match List.assoc_opt name hists with
        | Some h -> h.Telemetry.hs_sum
        | None -> 0.)
      phases
  in
  let fixtures =
    let entry_goals enc = Packetgen.entry_coverage_goals enc in
    let explore enc =
      Packetgen.entry_coverage_goals enc @ Data_campaign.exploratory_goals enc
    in
    let trace enc =
      Packetgen.trace_coverage_goals enc
        ~tables:[ "ipv4_table"; "acl_ingress_table" ]
    in
    [ ("middleblock/entry", Middleblock.program,
       Workload.scaled (if !quick then 0.05 else 0.25) Workload.inst1, entry_goals);
      ("middleblock/explore", Middleblock.program,
       Workload.scaled (if !quick then 0.05 else 0.1) Workload.inst1, explore);
      ("middleblock/trace", Middleblock.program, Workload.small, trace);
      ("wan/entry", Wan.program,
       Workload.scaled (if !quick then 0.05 else 0.1) Workload.inst2, entry_goals) ]
  in
  Printf.printf "%-22s %6s | %10s %9s | %10s %9s | %7s %5s | %23s\n" "fixture"
    "goals" "scr.confl" "scr.time" "inc.confl" "inc.time" "fewer" "same"
    "inc. assert/blast/search/model";
  Printf.printf "%s\n" (String.make 118 '-');
  let rows =
    List.map
      (fun (name, program, profile, mk_goals) ->
        let entries = Workload.generate ~seed:42 program profile in
        let enc = Symexec.encode program entries in
        let goals = mk_goals enc in
        let run incremental =
          let t0 = now () in
          let r = Packetgen.generate ~incremental enc goals in
          (r, now () -. t0)
        in
        let scratch, t_scr = run false in
        let hits0 = Telemetry.counter tm "smt.incremental_hits" in
        let reused0 = Telemetry.counter tm "smt.clauses_reused" in
        let phases0 = phase_sums () in
        let inc, t_inc = run true in
        let hits = Telemetry.counter tm "smt.incremental_hits" - hits0 in
        let reused = Telemetry.counter tm "smt.clauses_reused" - reused0 in
        let phase_s = List.map2 ( -. ) (phase_sums ()) phases0 in
        let identical =
          List.length scratch.Packetgen.packets = List.length inc.Packetgen.packets
          && List.for_all2
               (fun (a : Packetgen.test_packet) (b : Packetgen.test_packet) ->
                 a.tp_goal = b.tp_goal && a.tp_port = b.tp_port
                 && a.tp_bytes = b.tp_bytes)
               scratch.Packetgen.packets inc.Packetgen.packets
        in
        let c_scr = stat "conflicts" scratch.Packetgen.solver_stats in
        let c_inc = stat "conflicts" inc.Packetgen.solver_stats in
        let fewer =
          if c_scr = 0 then 0.
          else 100. *. float_of_int (c_scr - c_inc) /. float_of_int c_scr
        in
        Printf.printf
          "%-22s %6d | %10d %8.2fs | %10d %8.2fs | %6.1f%% %5b | %s\n%!" name
          (List.length goals) c_scr t_scr c_inc t_inc fewer identical
          (String.concat " / " (List.map (Printf.sprintf "%.3fs") phase_s));
        (name, List.length goals, c_scr, c_inc, t_scr, t_inc, identical, hits,
         reused, phase_s))
      fixtures
  in
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let c_scr = tot (fun (_, _, c, _, _, _, _, _, _, _) -> c) in
  let c_inc = tot (fun (_, _, _, c, _, _, _, _, _, _) -> c) in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, id, _, _, _) -> id) rows
  in
  let reduction =
    if c_scr = 0 then 0.
    else 100. *. float_of_int (c_scr - c_inc) /. float_of_int c_scr
  in
  Printf.printf "%s\n" (String.make 118 '-');
  Printf.printf
    "total conflicts: scratch %d, incremental %d (%.1f%% fewer; target >= 30%%)\n\
     identical packets on every fixture: %b\n"
    c_scr c_inc reduction all_identical;
  (* Snapshot for trend tracking; committed as BENCH_smt_incremental.json. *)
  let json =
    let row (name, goals, cs, ci, ts, ti, id, hits, reused, phase_s) =
      Printf.sprintf
        "    {\"fixture\": %S, \"goals\": %d, \"scratch_conflicts\": %d, \
         \"incremental_conflicts\": %d, \"scratch_time_s\": %.3f, \
         \"incremental_time_s\": %.3f, %s, \"identical_packets\": %b, \
         \"incremental_hits\": %d, \"clauses_reused\": %d}"
        name goals cs ci ts ti
        (String.concat ", "
           (List.map2 (fun (_, key) v -> Printf.sprintf "%S: %.3f" key v) phases phase_s))
        id hits reused
    in
    Printf.sprintf
      "{\n  \"artifact\": \"smt_incremental\",\n  \"fixtures\": [\n%s\n  ],\n  \
       \"total_scratch_conflicts\": %d,\n  \"total_incremental_conflicts\": %d,\n  \
       \"conflict_reduction_pct\": %.1f,\n  \"identical_packets\": %b\n}\n"
      (String.concat ",\n" (List.map row rows))
      c_scr c_inc reduction all_identical
  in
  let oc = open_out "BENCH_smt_incremental.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_smt_incremental.json\n";
  if not all_identical then failwith "incremental/scratch packet mismatch";
  if not !quick && reduction < 30. then
    failwith
      (Printf.sprintf "conflict reduction %.1f%% below the 30%% target" reduction)

(* ------------------------------------------------------------------ *)
(* Taint: static nondeterminism analysis driving set-valued verdicts   *)
(* ------------------------------------------------------------------ *)

let taint_bench () =
  banner "Taint: set-valued verdicts vs. exhaustive hash-round enumeration";
  Printf.printf
    "Each fixture data campaign runs twice against a seeded-hash switch:\n\
     once with the static taint pass on (hash/selector-tainted branch goals\n\
     skipped before the SMT stage, verdicts via the set-valued oracle) and\n\
     once with it off (every goal solved, every divergence candidate judged\n\
     by exhaustive hash-round enumeration). Both runs must be clean — the\n\
     set-valued fast paths may only admit behaviours enumeration admits.\n\n";
  let tm = Telemetry.get () in
  let fixtures =
    [ ("middleblock", Middleblock.program,
       if !quick then Workload.small else Workload.scaled 0.25 Workload.inst1);
      ("wan", Wan.program,
       if !quick then Workload.small else Workload.scaled 0.1 Workload.inst2) ]
  in
  Printf.printf "%-14s %6s %7s %7s %10s %9s %6s | %8s %8s\n" "fixture"
    "goals" "tainted" "admits" "escalated" "rds.saved" "clean" "on(s)" "off(s)";
  Printf.printf "%s\n" (String.make 92 '-');
  let rows =
    List.map
      (fun (name, program, profile) ->
        let entries = Workload.generate ~seed:42 program profile in
        let counter n = Telemetry.counter tm n in
        let run taint =
          let stack = Stack.create program in
          let t0 = now () in
          let incidents, stats =
            Data_campaign.run stack
              { (Data_campaign.default_config entries) with
                taint; test_packet_io = false }
          in
          (incidents, stats, now () -. t0)
        in
        (* Off first so the on-run's counter deltas are easy to snapshot. *)
        let inc_off, stats_off, t_off = run false in
        let tainted0 = counter "analysis.tainted_goals" in
        let admits0 = counter "oracle.dataplane_set_admits" in
        let esc0 = counter "oracle.dataplane_escalations" in
        let saved0 = counter "oracle.enum_rounds_saved" in
        let inc_on, stats_on, t_on = run true in
        let tainted = counter "analysis.tainted_goals" - tainted0 in
        let admits = counter "oracle.dataplane_set_admits" - admits0 in
        let escalated = counter "oracle.dataplane_escalations" - esc0 in
        let saved = counter "oracle.enum_rounds_saved" - saved0 in
        let clean = inc_on = [] && inc_off = [] in
        let skipped = stats_off.Report.ds_goals - stats_on.Report.ds_goals in
        Printf.printf "%-14s %6d %7d %7d %10d %9d %6b | %7.2fs %7.2fs\n%!" name
          stats_off.Report.ds_goals tainted admits escalated saved clean t_on
          t_off;
        (name, stats_off.Report.ds_goals, tainted, skipped, admits, escalated,
         saved, clean, t_on, t_off))
      fixtures
  in
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let tainted = tot (fun (_, _, t, _, _, _, _, _, _, _) -> t) in
  let skipped = tot (fun (_, _, _, s, _, _, _, _, _, _) -> s) in
  let saved = tot (fun (_, _, _, _, _, _, s, _, _, _) -> s) in
  let all_clean = List.for_all (fun (_, _, _, _, _, _, _, c, _, _) -> c) rows in
  let totf f = List.fold_left (fun a r -> a +. f r) 0. rows in
  let t_on = totf (fun (_, _, _, _, _, _, _, _, t, _) -> t) in
  let t_off = totf (fun (_, _, _, _, _, _, _, _, _, t) -> t) in
  let delta_pct = if t_off = 0. then 0. else 100. *. (t_off -. t_on) /. t_off in
  Printf.printf "%s\n" (String.make 92 '-');
  Printf.printf
    "goals reclassified tainted: %d (= SMT attempts skipped: %d), hash-round \
     executions saved: %d\nwall-clock: %.2fs with taint vs %.2fs without \
     (%.1f%% delta); clean on every fixture: %b\n"
    tainted skipped saved t_on t_off delta_pct all_clean;
  (* Snapshot for trend tracking; committed as BENCH_taint.json. *)
  let json =
    let row (name, goals, tainted, skipped, admits, escalated, saved, clean,
             t_on, t_off) =
      Printf.sprintf
        "    {\"fixture\": %S, \"goals\": %d, \"tainted_goals\": %d, \
         \"smt_attempts_skipped\": %d, \"set_admits\": %d, \
         \"escalations\": %d, \"enum_rounds_saved\": %d, \"clean\": %b, \
         \"time_taint_s\": %.3f, \"time_enum_s\": %.3f}"
        name goals tainted skipped admits escalated saved clean t_on t_off
    in
    Printf.sprintf
      "{\n  \"artifact\": \"taint\",\n  \"fixtures\": [\n%s\n  ],\n  \
       \"total_tainted_goals\": %d,\n  \"total_smt_attempts_skipped\": %d,\n  \
       \"total_enum_rounds_saved\": %d,\n  \"wallclock_delta_pct\": %.1f,\n  \
       \"clean\": %b\n}\n"
      (String.concat ",\n" (List.map row rows))
      tainted skipped saved delta_pct all_clean
  in
  let oc = open_out "BENCH_taint.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_taint.json\n";
  if not all_clean then
    failwith "set-valued verdicts reported incidents a clean switch should not";
  if tainted = 0 then failwith "taint pass reclassified no goals on WCMP models";
  if saved = 0 then failwith "set-valued verdicts saved no hash-round executions"

(* ------------------------------------------------------------------ *)
(* Triage: ddmin shrinkage and fingerprint dedup                       *)
(* ------------------------------------------------------------------ *)

let triage_bench () =
  banner "Triage: reproducer minimization (ddmin) and fingerprint dedup";
  Printf.printf
    "Per seeded fault: raw miscompares vs. fingerprint clusters, then each\n\
     cluster representative's reproducer delta-debugged to a 1-minimal\n\
     input. Shrink = raw size / minimized size; probes = replays spent.\n\n";
  let program = Middleblock.program in
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 program profile in
  let catalogue = Catalogue.pins program entries in
  let interesting (f : Fault.t) =
    match f.kind with
    | Fault.Reject_valid_insert _ | Fault.Syncd_drops_table _ -> true
    | _ -> false
  in
  let faults =
    let sel = List.filter interesting catalogue in
    let n = if !quick then 2 else 4 in
    List.filteri (fun i _ -> i < n) sel
  in
  let tm = Telemetry.get () in
  let max_probes = if !quick then 64 else 256 in
  List.iter
    (fun (fault : Fault.t) ->
      let mk () = Stack.create ~faults:[ fault ] program in
      let config =
        { (Harness.default_config entries) with
          control = { Control_campaign.default_config with batches = 2; seed = 99 } }
      in
      let report = Harness.validate mk config in
      let clusters = report.Report.clusters in
      let miscompares =
        List.fold_left (fun a (c : Report.cluster) -> a + c.cl_count) 0 clusters
      in
      Printf.printf "%s: %d miscompare(s) -> %d cluster(s)\n" fault.Fault.id
        miscompares (List.length clusters);
      List.iteri
        (fun i (c : Report.cluster) ->
          match c.cl_example.Report.repro with
          | Some r when i < 5 ->
              let before = Telemetry.counter tm "triage.ddmin_probes" in
              let r' = Harness.minimize_repro mk ~max_probes r in
              let probes = Telemetry.counter tm "triage.ddmin_probes" - before in
              let raw = Repro.size r and minimized = Repro.size r' in
              Printf.printf "  %-60s %4d -> %3d  %5.1fx %5d probes\n"
                c.cl_fingerprint raw minimized
                (float_of_int raw /. float_of_int (max 1 minimized))
                probes
          | _ -> ())
        clusters)
    faults

(* ------------------------------------------------------------------ *)
(* Parallel: fork-based campaign sharding speedup                      *)
(* ------------------------------------------------------------------ *)

let parallel_bench () =
  banner "Parallel: fork-based campaign sharding (switchv validate --jobs)";
  Printf.printf
    "Both campaigns at shards=4, executed with 1, 2, and 4 worker\n\
     processes. The shard decomposition is fixed by the shard count, so\n\
     every jobs value must report the identical incident set; the only\n\
     thing that changes is wall-clock time.\n\n";
  let program = Middleblock.program in
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 program profile in
  let catalogue = Catalogue.pins program entries in
  let fault_matching pred =
    match List.find_opt (fun (f : Fault.t) -> pred f.Fault.kind) catalogue with
    | Some f -> [ f ]
    | None -> []
  in
  let incident_set incidents = List.map Report.incident_ipc_to_json incidents in
  let row name jobs seconds base_seconds identical =
    Printf.printf "%-22s jobs=%d %8.2fs  %5.2fx  incidents identical: %b\n%!"
      name jobs seconds
      (if seconds > 0. then base_seconds /. seconds else 0.)
      identical
  in
  let bench name runner =
    let t1, i1 = runner 1 in
    row name 1 t1 t1 true;
    List.iter
      (fun jobs ->
        let t, i = runner jobs in
        row name jobs t t1 (incident_set i = incident_set i1))
      [ 2; 4 ]
  in
  (* Control campaign: seed-range shards against a fault the oracle sees. *)
  let control_faults =
    fault_matching (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let control_cfg =
    { Control_campaign.default_config with
      batches = (if !quick then 8 else 48);
      seed = 99;
      shards = 4;
      max_incidents = 1000 }
  in
  bench "control campaign" (fun jobs ->
      let mk () = Stack.create ~faults:control_faults program in
      let t0 = now () in
      let incidents, _ = Control_campaign.run_sharded ~jobs mk control_cfg in
      (now () -. t0, incidents));
  (* Data campaign: coverage-goal slices against a fault the differ sees. *)
  let data_faults =
    fault_matching (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let data_cfg =
    { (Data_campaign.default_config entries) with
      shards = 4;
      test_packet_io = false;
      max_incidents = 1000 }
  in
  bench "data campaign" (fun jobs ->
      let stack = Stack.create ~faults:data_faults program in
      let t0 = now () in
      let incidents, _ = Data_campaign.run ~jobs stack data_cfg in
      (now () -. t0, incidents))

(* ------------------------------------------------------------------ *)
(* Obs: instrumentation overhead on the hot paths                      *)
(* ------------------------------------------------------------------ *)

let obs_overhead_bench () =
  banner "Obs: telemetry + coverage accounting overhead on hot paths";
  let reps = if !quick then 3 else 9 in
  let budget_pct = if !quick then 10. else 5. in
  let min_rep_s = if !quick then 0.3 else 1.0 in
  Printf.printf
    "Each hot path runs under an enabled registry (counters, histograms,\n\
     spans, per-edge coverage accounting — the always-on configuration)\n\
     and a disabled one (every telemetry call short-circuits on one bool).\n\
     The two configurations are interleaved call by call so cache and\n\
     scheduler drift lands on both sides. A timed warm-up counts the calls\n\
     that make %.1fs per side; every rep makes that many calls per side\n\
     and the per-call time is best-of-%d per configuration.\n\
     Budget: <= %.0f%%.\n\n"
    min_rep_s reps budget_pct;
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 Middleblock.program profile in
  let time_pair f =
    let once ~enabled =
      let t = Telemetry.create () in
      Telemetry.set_enabled t enabled;
      Telemetry.with_registry t (fun () ->
          let t0 = now () in
          ignore (f ());
          now () -. t0)
    in
    (* Warm-up: after one untimed cold call per side, alternate calls until
       each side has run for [min_rep_s]; the number of calls that took is
       every rep's loop count. *)
    ignore (once ~enabled:false);
    ignore (once ~enabled:true);
    let loops =
      let off = ref 0. and on = ref 0. and n = ref 0 in
      while !off < min_rep_s || !on < min_rep_s do
        off := !off +. once ~enabled:false;
        on := !on +. once ~enabled:true;
        incr n
      done;
      !n
    in
    (* One rep: [loops] calls per side, alternating call by call, so a
       change of host speed lands on both sides alike. *)
    let rep () =
      let off = ref 0. and on = ref 0. in
      for _ = 1 to loops do
        off := !off +. once ~enabled:false;
        on := !on +. once ~enabled:true
      done;
      (!off /. float_of_int loops, !on /. float_of_int loops)
    in
    let best_off = ref infinity and best_on = ref infinity in
    for _ = 1 to reps do
      let off, on = rep () in
      best_off := Float.min !best_off off;
      best_on := Float.min !best_on on
    done;
    (!best_off, !best_on, loops)
  in
  (* genpackets: encoding + SMT goal solving, validate's "Generation"
     phase (telemetry here is spans + per-check counter deltas). *)
  let genpackets () =
    let enc = Symexec.encode Middleblock.program entries in
    Packetgen.generate enc (Packetgen.entry_coverage_goals enc)
  in
  (* inject: the bmv2 interpreter loop, validate's "Testing" phase —
     where the per-edge coverage counters were added. *)
  let inject =
    let state = State.create () in
    List.iter (fun e -> ignore (State.insert state e)) entries;
    let cfg =
      { Interp.program = Middleblock.program; state; hash_mode = Interp.Fixed 0;
        mirror_map = [] }
    in
    let packets =
      List.init 64 (fun i ->
          Switchv_packet.Packet.to_bytes
            (Switchv_packet.Packet.simple_ipv4 ~src:"192.0.2.1"
               ~dst:(Printf.sprintf "10.%d.%d.%d" (i mod 200) (i / 8) (succ i mod 251))
               ()))
    in
    let rounds = if !quick then 20 else 60 in
    fun () ->
      for _ = 1 to rounds do
        List.iter (fun p -> ignore (Evaluator.run Evaluator.interpreted cfg ~ingress_port:1 p)) packets
      done
  in
  let paths =
    [ ("genpackets", fun () -> ignore (genpackets ())); ("inject", inject) ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let off, on, loops = time_pair f in
        let pct = if off > 0. then 100. *. (on -. off) /. off else 0. in
        Printf.printf
          "%-12s disabled %8.4fs   enabled %8.4fs   overhead %+6.2f%%   (%d loops/rep)\n%!"
          name off on pct loops;
        (name, off, on, pct, loops))
      paths
  in
  let max_pct =
    List.fold_left (fun a (_, _, _, p, _) -> Float.max a p) neg_infinity rows
  in
  let json =
    let row (n, off, on, p, loops) =
      Printf.sprintf
        "    {\"path\": %S, \"loops\": %d, \"disabled_s\": %.4f, \
         \"enabled_s\": %.4f, \"overhead_pct\": %.2f}"
        n loops off on p
    in
    Printf.sprintf
      "{\n  \"artifact\": \"obs_overhead\",\n  \"budget_pct\": %.1f,\n  \
       \"paths\": [\n%s\n  ],\n  \"max_overhead_pct\": %.2f\n}\n"
      budget_pct
      (String.concat ",\n" (List.map row rows))
      max_pct
  in
  let oc = open_out "BENCH_obs_overhead.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_obs_overhead.json\n";
  if max_pct > budget_pct then
    failwith
      (Printf.sprintf "telemetry overhead %.2f%% exceeds the %.0f%% budget"
         max_pct budget_pct)

(* ------------------------------------------------------------------ *)
(* Fabric: multi-switch campaign throughput and fault localization     *)
(* ------------------------------------------------------------------ *)

let fabric_bench () =
  banner "Fabric: multi-switch campaign throughput and hop localization";
  Printf.printf
    "Throughput: an unseeded fabric campaign per topology size (every flow\n\
     crosses both the stack fabric and the model fabric, judged per hop\n\
     and end-to-end; hops/s counts per-switch packet processings).\n\
     Localization: a 3-switch line with each data-plane fault seeded on\n\
     sw1 — accuracy is the fraction of faults caught AND attributed only\n\
     to sw1, never to an innocent neighbour.\n\n";
  let sizes =
    if !quick then [ (Topo.Line, 3); (Topo.Star, 4) ]
    else
      [ (Topo.Line, 3); (Topo.Line, 6); (Topo.Star, 6); (Topo.Mesh, 4);
        (Topo.Leaf_spine, 6) ]
  in
  Printf.printf "%-12s %8s %6s %6s %9s %8s %9s %9s\n" "topology" "switches"
    "flows" "hops" "delivered" "time" "flows/s" "hops/s";
  Printf.printf "%s\n" (String.make 76 '-');
  let throughput =
    List.map
      (fun (shape, switches) ->
        let cfg = Fabric_campaign.default_config shape switches in
        let incidents, stats = Fabric_campaign.run Middleblock.program cfg in
        assert (incidents = []);
        let dt = stats.Report.fs_duration in
        let per x = if dt > 0. then float_of_int x /. dt else 0. in
        Printf.printf "%-12s %8d %6d %6d %9d %7.2fs %9.0f %9.0f\n%!"
          stats.Report.fs_shape switches stats.Report.fs_flows
          stats.Report.fs_hops stats.Report.fs_delivered dt
          (per stats.Report.fs_flows) (per stats.Report.fs_hops);
        (stats, per stats.Report.fs_flows, per stats.Report.fs_hops))
      sizes
  in
  (* Localization accuracy over the data-plane fault kinds that can fire on
     a middleblock line fabric ([Encap_reversed_dst] has no tunnel tables
     to act on). *)
  let topo3 = Topo.build Topo.Line 3 in
  let catalogue =
    Catalogue.topo Middleblock.program
      (Routes.entries topo3 Middleblock.program ~switch:1)
  in
  let extra =
    List.map
      (fun (name, kind) ->
        Fault.make ~id:("BENCH-" ^ name) ~component:Fault.Hardware kind name)
      [ ("drop-dst-ip",
         Fault.Drop_dst_ip (Switchv_packet.Packet.ipv4_of_string (Routes.host_ip 2)));
        ("punt-ether-type", Fault.Punt_ether_type 0x88CC);
        ("dscp-remark", Fault.Dscp_remark_zero 8);
        ("mirror-ignored", Fault.Mirror_ignored);
        ("punt-lost", Fault.Punt_lost);
        ("submit-dropped", Fault.Submit_to_ingress_dropped);
        ("po-punted-back", Fault.Packet_out_punted_back) ]
  in
  let faults =
    let all = catalogue @ extra in
    if !quick then List.filteri (fun i _ -> i < 4) all else all
  in
  Printf.printf "\n%-28s %9s %9s %s\n" "seeded fault (on sw1)" "incidents"
    "localized" "verdict";
  Printf.printf "%s\n" (String.make 72 '-');
  let localization =
    List.map
      (fun (fault : Fault.t) ->
        let cfg =
          { (Fabric_campaign.default_config Topo.Line 3) with
            Fabric_campaign.faults = [ (1, [ fault ]) ];
            max_incidents = 200 }
        in
        let incidents, _ = Fabric_campaign.run Middleblock.program cfg in
        let hops =
          List.filter_map
            (fun (i : Report.incident) ->
              match i.Report.context with
              | Some { Report.ctx_hop = Some h; _ } -> Some h
              | _ -> None)
            incidents
        in
        let correct =
          incidents <> [] && hops <> []
          && List.for_all (String.equal "sw1") hops
        in
        Printf.printf "%-28s %9d %9d %s\n%!" fault.Fault.id
          (List.length incidents) (List.length hops)
          (if correct then "sw1" else "MISLOCALIZED");
        (fault.Fault.id, List.length incidents, correct))
      faults
  in
  let correct = List.length (List.filter (fun (_, _, c) -> c) localization) in
  let accuracy = float_of_int correct /. float_of_int (List.length faults) in
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "localization accuracy: %d/%d (%.0f%%)\n" correct
    (List.length faults) (100. *. accuracy);
  (* Snapshot for trend tracking; committed as BENCH_fabric.json. *)
  let json =
    let trow ((s : Report.fabric_stats), fps, hps) =
      Printf.sprintf
        "    {\"shape\": %S, \"switches\": %d, \"flows\": %d, \"hops\": %d, \
         \"delivered\": %d, \"dropped\": %d, \"duration_s\": %.3f, \
         \"flows_per_s\": %.0f, \"hops_per_s\": %.0f}"
        s.Report.fs_shape s.Report.fs_switches s.Report.fs_flows
        s.Report.fs_hops s.Report.fs_delivered s.Report.fs_dropped
        s.Report.fs_duration fps hps
    in
    let lrow (id, incidents, correct) =
      Printf.sprintf "    {\"fault\": %S, \"incidents\": %d, \"localized\": %b}"
        id incidents correct
    in
    Printf.sprintf
      "{\n  \"artifact\": \"fabric\",\n  \"throughput\": [\n%s\n  ],\n  \
       \"localization\": [\n%s\n  ],\n  \"localization_accuracy\": %.3f\n}\n"
      (String.concat ",\n" (List.map trow throughput))
      (String.concat ",\n" (List.map lrow localization))
      accuracy
  in
  let oc = open_out "BENCH_fabric.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_fabric.json\n";
  if accuracy < 1.0 then
    failwith "a seeded fabric fault was missed or localized to the wrong switch"

(* ------------------------------------------------------------------ *)
(* Greybox: coverage-guided scheduling vs. the blind fuzzer            *)
(* ------------------------------------------------------------------ *)

let greybox_bench () =
  banner "Greybox: coverage-guided scheduling vs. blind fuzzing";
  Printf.printf
    "Part 1 — edges per packet budget: each fixture runs the control\n\
     campaign with the feedback loop on (probes scheduled from the corpus,\n\
     power-schedule mutation targets), then a blind baseline given the\n\
     exact same injection budget of feedback-free random packets. The\n\
     guided run must cover strictly more model edges.\n\
     Part 2 — time to detection: every fault in the catalogue is hunted\n\
     by the full harness in both modes; guidance must not lose a fault\n\
     the blind pipeline detects.\n\n";
  (* --- part 1: edges per N packets ------------------------------------ *)
  let fixtures =
    [ ("middleblock", Middleblock.program); ("wan", Wan.program) ]
  in
  let batches = if !quick then 8 else 12 in
  Printf.printf "%-14s %8s %8s %8s %8s %7s\n" "fixture" "packets" "guided"
    "blind" "corpus" "seeded";
  Printf.printf "%s\n" (String.make 60 '-');
  let cov_rows =
    List.map
      (fun (name, program) ->
        let config =
          { Control_campaign.default_config with batches; seed = 11 }
        in
        (* Guided: the campaign's own probe/corpus/power-schedule loop. *)
        let tele = Telemetry.create () in
        let covered_guided, probes, seeded =
          Telemetry.with_registry tele (fun () ->
              let stack = Stack.create program in
              ignore (Control_campaign.run stack config);
              ( (Switchv_obs.Coverage.of_registry tele program)
                  .Switchv_obs.Coverage.covered,
                Telemetry.counter tele "fuzzer.greybox.probes",
                Telemetry.counter tele "fuzzer.greybox.seeded_bases" ))
        in
        let corpus = Telemetry.counter tele "fuzzer.greybox.corpus_admitted" in
        (* Blind baseline: same campaign without feedback, then the same
           injection budget of fresh random packets — a Greybox instance
           that never observes draws fresh-only, so this is exactly the
           feedback-free probe stream. *)
        let tele_b = Telemetry.create () in
        let covered_blind =
          Telemetry.with_registry tele_b (fun () ->
              let stack = Stack.create program in
              ignore
                (Control_campaign.run stack { config with greybox = false });
              let gb = Switchv_fuzzer.Greybox.create ~program ~seed:11 () in
              for _ = 1 to probes do
                let port, bytes = Switchv_fuzzer.Greybox.probe_packet gb in
                ignore (Stack.inject stack ~ingress_port:port bytes)
              done;
              (Switchv_obs.Coverage.of_registry tele_b program)
                .Switchv_obs.Coverage.covered)
        in
        Printf.printf "%-14s %8d %8d %8d %8d %7d\n%!" name probes
          covered_guided covered_blind corpus seeded;
        (name, probes, covered_guided, covered_blind, corpus, seeded))
      fixtures
  in
  (* --- part 2: time to detection across the fault catalogue ----------- *)
  let entries = workload_of Pins in
  let faults = catalogue_of Pins entries in
  let faults = if !quick then List.filteri (fun i _ -> i < 6) faults else faults in
  let hunt greybox fault =
    let config =
      { (Harness.default_config entries) with
        control =
          { Control_campaign.default_config with
            batches = (if !quick then 2 else 4);
            seed = 99;
            greybox };
        cache = Some (Cache.in_memory ()) }
    in
    let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
    let t0 = now () in
    let found = Harness.detect mk config in
    (found, now () -. t0)
  in
  Printf.printf "\n%-22s %10s %10s %9s %9s\n" "fault" "guided" "blind"
    "t.gd(s)" "t.bl(s)";
  Printf.printf "%s\n" (String.make 66 '-');
  let det_rows =
    List.map
      (fun (fault : Fault.t) ->
        let found_g, t_g = hunt true fault in
        let found_b, t_b = hunt false fault in
        let show = function
          | Some d -> Report.detector_to_string d
          | None -> "missed"
        in
        Printf.printf "%-22s %10s %10s %8.2fs %8.2fs\n%!" fault.Fault.id
          (show found_g) (show found_b) t_g t_b;
        (fault.Fault.id, found_g <> None, found_b <> None, t_g, t_b))
      faults
  in
  let detected which = List.length (List.filter which det_rows) in
  let n_guided = detected (fun (_, g, _, _, _) -> g) in
  let n_blind = detected (fun (_, _, b, _, _) -> b) in
  let lost =
    List.filter_map
      (fun (id, g, b, _, _) -> if b && not g then Some id else None)
      det_rows
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. det_rows in
  let t_guided = sum (fun (_, _, _, t, _) -> t) in
  let t_blind = sum (fun (_, _, _, _, t) -> t) in
  Printf.printf "%s\n" (String.make 66 '-');
  Printf.printf
    "detected: %d/%d guided vs %d/%d blind; total hunt time %.1fs vs %.1fs\n"
    n_guided (List.length det_rows) n_blind (List.length det_rows) t_guided
    t_blind;
  (* Snapshot for trend tracking; committed as BENCH_greybox.json. *)
  let json =
    let cov_row (name, probes, g, b, corpus, seeded) =
      Printf.sprintf
        "    {\"fixture\": %S, \"packets\": %d, \"edges_guided\": %d, \
         \"edges_blind\": %d, \"corpus_seeds\": %d, \"seeded_bases\": %d}"
        name probes g b corpus seeded
    in
    let det_row (id, g, b, t_g, t_b) =
      Printf.sprintf
        "    {\"fault\": %S, \"detected_guided\": %b, \"detected_blind\": %b, \
         \"time_guided_s\": %.3f, \"time_blind_s\": %.3f}"
        id g b t_g t_b
    in
    Printf.sprintf
      "{\n  \"artifact\": \"greybox\",\n  \"edges_per_budget\": [\n%s\n  ],\n  \
       \"detection\": [\n%s\n  ],\n  \"detected_guided\": %d,\n  \
       \"detected_blind\": %d,\n  \"total_time_guided_s\": %.1f,\n  \
       \"total_time_blind_s\": %.1f\n}\n"
      (String.concat ",\n" (List.map cov_row cov_rows))
      (String.concat ",\n" (List.map det_row det_rows))
      n_guided n_blind t_guided t_blind
  in
  let oc = open_out "BENCH_greybox.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_greybox.json\n";
  List.iter
    (fun (name, probes, g, b, _, _) ->
      if g <= b then
        failwith
          (Printf.sprintf
             "guided covered no more edges than blind on %s (%d vs %d over %d \
              packets)"
             name g b probes))
    cov_rows;
  if lost <> [] then
    failwith
      ("greybox lost faults the blind pipeline detects: "
      ^ String.concat ", " lost)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "Bechamel micro-benchmarks (kernels behind each table)";
  let open Bechamel in
  let entries_small = Workload.generate ~seed:5 Middleblock.program Workload.small in
  let state = State.create () in
  List.iter (fun e -> ignore (State.insert state e)) entries_small;
  let interp_cfg =
    { Interp.program = Middleblock.program; state; hash_mode = Interp.Seeded 3;
      mirror_map = [] }
  in
  let packet =
    Switchv_packet.Packet.to_bytes
      (Switchv_packet.Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"10.0.1.7" ())
  in
  let tests =
    [ Test.make ~name:"table3.symbolic_generation_small"
        (Staged.stage (fun () ->
             let enc = Symexec.encode Middleblock.program entries_small in
             ignore (Packetgen.generate enc (Packetgen.entry_coverage_goals enc))));
      Test.make ~name:"table3.fuzzer_batch"
        (let fuzzer = Fuzzer.create Middleblock.info (Rng.create 3) in
         Staged.stage (fun () -> ignore (Fuzzer.next_batch fuzzer)));
      Test.make ~name:"table1.interp_packet"
        (Staged.stage (fun () -> ignore (Evaluator.run Evaluator.interpreted interp_cfg ~ingress_port:1 packet)));
      Test.make ~name:"table1.oracle_classify"
        (let oracle = Oracle.create Middleblock.info in
         let u = Request.insert (List.hd entries_small) in
         Staged.stage (fun () -> ignore (Oracle.classify oracle u)));
      Test.make ~name:"table2.trivial_suite"
        (Staged.stage (fun () ->
             let s = Stack.create Middleblock.program in
             ignore (Trivial_suite.run s)));
      Test.make ~name:"core.bitvec_add_128"
        (let a = Rng.bitvec (Rng.create 1) 128 and b = Rng.bitvec (Rng.create 2) 128 in
         Staged.stage (fun () -> ignore (Bitvec.add a b))) ]
  in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let clock = Toolkit.Instance.monotonic_clock in
      let results = Benchmark.all cfg [ clock ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-42s %14.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-42s (no estimate)\n%!" name)
        analysis)
    tests


(* ------------------------------------------------------------------ *)
(* Scale: million-entry tables — indexed match structures + staged     *)
(* evaluator vs. the tree-walking linear-scan interpreter              *)
(* ------------------------------------------------------------------ *)

let scale_bench () =
  banner "Scale: indexed match + compiled evaluator at 1k..1M entries";
  Printf.printf
    "Per tier: install a scale route workload (unique /24s + nexthop\n\
     chain), measure control-plane writes/sec with live index\n\
     maintenance, then packets/sec through the staged evaluator\n\
     (Compile) and the linear-scan interpreter (Interp) on the same\n\
     state, with the compiled cost per packet in microseconds and\n\
     minor-heap words. Gate: >= 10x packets/sec at the 100k tier.\n\n";
  let program = Middleblock.program in
  let tiers =
    if !quick then [ 1_000; 10_000; 100_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let mk_packet i =
    Switchv_packet.Packet.to_bytes
      { Switchv_packet.Packet.headers =
          [ Switchv_packet.Packet.ethernet_frame ~dst:"02:00:00:00:0a:01"
              ~ether_type:0x0800 ();
            Switchv_packet.Packet.ipv4_header ~ttl:64 ~src:"192.0.2.1"
              ~dst:
                (Printf.sprintf "%d.%d.%d.1" (10 + (i lsr 16))
                   ((i land 0xFFFF) lsr 8)
                   (i land 0xFF))
              ();
          Switchv_packet.Packet.udp_header ~src_port:53 ~dst_port:443 () ];
        payload = "scale" }
  in
  Printf.printf "%-9s %12s %14s %9s %11s %14s %9s\n" "entries" "writes/s"
    "pps compiled" "us/pkt" "words/pkt" "pps interp" "speedup";
  Printf.printf "%s\n" (String.make 84 '-');
  let rows =
    List.map
      (fun n ->
        let entries = Workload.scale_routes program n in
        let chain, routes =
          List.partition (fun (e : Entry.t) -> e.e_table <> "ipv4_table") entries
        in
        let state = State.create () in
        List.iter (fun e -> ignore (State.insert state e)) chain;
        let cfg =
          { Interp.program; state; hash_mode = Interp.Fixed 0;
            mirror_map = Workload.mirror_map chain }
        in
        (* One staged run before the routes land: builds the per-table
           indexes, so the timed inserts below pay the incremental
           maintenance cost the campaigns pay. Also amortises staging. *)
        ignore (Evaluator.run Compile.evaluator cfg ~ingress_port:1 (mk_packet 0));
        let t0 = now () in
        List.iter (fun e -> ignore (State.insert state e)) routes;
        let t_write = now () -. t0 in
        let writes_per_s = float_of_int (List.length routes) /. t_write in
        (* Distinct dsts spread over the installed tier, reused cyclically. *)
        let probes = Array.init 256 (fun k -> mk_packet (k * (n / 256 + 1) mod n)) in
        (* Packets per second and minor-heap words per packet. *)
        let pps run reps =
          let w0 = Gc.minor_words () in
          let t0 = now () in
          for k = 0 to reps - 1 do
            ignore (run cfg ~ingress_port:1 probes.(k mod 256))
          done;
          let dt = now () -. t0 in
          (float_of_int reps /. dt, (Gc.minor_words () -. w0) /. float_of_int reps)
        in
        let reps_c = if !quick then 5_000 else 20_000 in
        let reps_i =
          if n <= 1_000 then 500
          else if n <= 10_000 then 100
          else if n <= 100_000 then 20
          else 3
        in
        let pps_compiled, words_per_pkt = pps (Evaluator.run Compile.evaluator) reps_c in
        let pps_interp, _ = pps (Evaluator.run Evaluator.interpreted) reps_i in
        let us_per_pkt = 1e6 /. pps_compiled in
        let speedup = pps_compiled /. pps_interp in
        Printf.printf "%-9d %12.0f %14.0f %9.1f %11.0f %14.1f %8.1fx\n%!" n writes_per_s
          pps_compiled us_per_pkt words_per_pkt pps_interp speedup;
        (n, writes_per_s, pps_compiled, us_per_pkt, words_per_pkt, pps_interp, speedup))
      tiers
  in
  let json =
    let row (n, w, pc, us, words, pi, sp) =
      Printf.sprintf
        "    {\"entries\": %d, \"writes_per_s\": %.0f, \"pps_compiled\": \
         %.0f, \"us_per_pkt\": %.1f, \"words_per_pkt\": %.0f, \"pps_interp\": \
         %.1f, \"speedup\": %.1f}"
        n w pc us words pi sp
    in
    Printf.sprintf
      "{\n  \"artifact\": \"scale\",\n  \"tiers\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map row rows))
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_scale.json\n";
  List.iter
    (fun (n, _, pc, _, _, pi, sp) ->
      if n = 100_000 && sp < 10.0 then
        failwith
          (Printf.sprintf
             "compiled evaluator below the 10x gate at 100k entries \
              (%.0f vs %.1f pps, %.1fx)"
             pc pi sp))
    rows

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "quick" args;
  let args = List.filter (fun a -> a <> "quick") args in
  let all =
    [ "table1"; "table2"; "table3"; "figure7"; "ablations"; "triage"; "parallel";
      "smt_incremental"; "taint"; "obs_overhead"; "fabric"; "greybox";
      "scale" ]
  in
  let selected = if args = [] then all else args in
  let t0 = now () in
  List.iter
    (fun artifact ->
      (* Per-artifact telemetry: reset so each snapshot covers one artifact,
         and emit it as one machine-readable JSON line for trend tracking. *)
      Telemetry.reset (Telemetry.get ());
      let known = ref true in
      (match artifact with
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "figure7" -> figure7 ()
      | "ablations" -> ablations ()
      | "triage" -> triage_bench ()
      | "parallel" -> parallel_bench ()
      | "smt_incremental" -> smt_incremental_bench ()
      | "taint" -> taint_bench ()
      | "obs_overhead" -> obs_overhead_bench ()
      | "fabric" -> fabric_bench ()
      | "greybox" -> greybox_bench ()
      | "scale" -> scale_bench ()
      | "micro" -> micro ()
      | other ->
          known := false;
          Printf.printf
            "unknown artifact %S (use \
             table1|table2|table3|figure7|ablations|triage|parallel|\
             smt_incremental|taint|obs_overhead|fabric|greybox|scale|micro|quick)\n"
            other);
      if !known then
        Printf.printf "\ntelemetry %s %s\n" artifact
          (Telemetry.snapshot_to_json (Telemetry.snapshot (Telemetry.get ()))))
    selected;
  Printf.printf "\ntotal bench time: %.1fs\n" (now () -. t0)
