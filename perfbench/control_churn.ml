(* control_churn: the control-plane campaign [switchv fuzz] runs —
   [Control_campaign.run] with greybox feedback on — on a fresh fault-free
   stack, for a fixed batch count from seeds derived from the workload
   seed. Installed state grows with every batch, and per-batch cost with
   it. The workload is defined by its batch count, never by a time box: a
   faster build must not reach a larger state. *)

open Common
module Control_campaign = Switchv_core.Control_campaign
module Report = Switchv_core.Report
module Fuzzer = Switchv_fuzzer.Fuzzer
module Greybox = Switchv_fuzzer.Greybox
module Oracle = Switchv_oracle.Oracle
module State = Switchv_p4runtime.State
module Workload = Switchv_sai.Workload
module Middleblock = Switchv_sai.Middleblock
module Rng = Switchv_bitvec.Rng

let program = Middleblock.program

(* 60 random batches after the directed sweep: about a hundred batches
   and 3200 updates per campaign, taking a couple of seconds. *)
let batches = 60
let setup_reps = 15

(* Campaigns that complete per round, each from its own seed. *)
let campaign_seeds = 3

(* The campaign seeds of workload seed [seed], in the order they are
   tried: a seed whose campaign raises is counted as a failed operation and
   the next one is tried, up to [max_tries] in all. *)
let max_tries = 12

let candidate_seed seed i = (seed * 1000) + i + 1

let config seed = { Control_campaign.default_config with batches; seed; greybox = true }

(* The stats a replay must reproduce exactly. *)
type stats = {
  st_batches : int;
  st_updates : int;
  st_valid : int;
  st_invalid : int;
  st_novel : int;
  st_corpus : int;
  st_incidents : int;
}

let of_report incidents (cs : Report.control_stats) =
  { st_batches = cs.cs_batches; st_updates = cs.cs_updates; st_valid = cs.cs_valid_updates;
    st_invalid = cs.cs_invalid_updates; st_novel = cs.cs_novel_edges;
    st_corpus = cs.cs_corpus_seeds; st_incidents = List.length incidents }

let pp_stats s =
  Printf.sprintf "batches=%d updates=%d valid=%d invalid=%d novel_edges=%d corpus=%d incidents=%d"
    s.st_batches s.st_updates s.st_valid s.st_invalid s.st_novel s.st_corpus s.st_incidents

(* What a run keeps of one campaign: a few numbers, so its memory does not
   grow with the number of campaigns a faster build completes. *)
type campaign = {
  wall : float;  (** host-normalised in [run] *)
  raw_wall : float;  (** as measured *)
  stats : (stats, string) result;  (** [Error] names the exception the campaign raised *)
  alloc_words : float;
  injects : int;  (** greybox probe packets, from the [switch.inject] span *)
  inject_s : float;
}

(* One untraced campaign on a stack created outside the timed window; its
   registry delta is added to [totals] when given. *)
let campaign ?(faults = []) ?totals seed =
  let stack = Stack.create ~faults program in
  let ((stats, words, _), wall), delta =
    registry_delta (fun () ->
        timed (fun () ->
            gc_delta (fun () ->
                match Control_campaign.run stack (config seed) with
                | incidents, cs -> Ok (of_report incidents cs)
                | exception e -> Error (Printexc.to_string e))))
  in
  Option.iter (fun t -> add_delta t delta) totals;
  { wall; raw_wall = wall; stats; alloc_words = words; injects = span_count delta "switch.inject";
    inject_s = span_total delta "switch.inject" }

(* --- the traced replay -------------------------------------------------- *)

type spans = {
  mutable fuzzer : float;
  mutable write : float;
  mutable read : float;
  mutable judge : float;
  mutable probe : float;
  mutable probes : int;
  mutable batch_costs : (float * int) list;  (** per batch: seconds, updates; newest first *)
}

let span acc f =
  let r, dt = timed f in
  acc dt;
  r

(* Greybox probe packets after every batch, as in [Control_campaign] (which
   does not export it); the replay's stats gate catches a mismatch. *)
let probes_per_batch = 2

(* [Control_campaign.run]'s single-shard loop, rebuilt from the layers'
   public functions with a span around each call: the directed sweep and
   [Fuzzer.next_batch] -> [Stack.write] -> [Stack.read] ->
   [Oracle.judge_batch], then the greybox probes. Returns the stats the
   campaign would report and the installed entry count. *)
let replay seed sp =
  let cfg = config seed in
  let stack = Stack.create program in
  let tele = Telemetry.get () in
  let batches = ref 0 and updates = ref 0 and valid = ref 0 and invalid = ref 0 in
  let incidents = ref (if Status.is_ok (Stack.push_p4info stack) then 0 else 1) in
  let gb = Greybox.create ~program:(Stack.program stack) ~seed () in
  (if !incidents = 0 then
     let fuzzer =
       Fuzzer.create ~config:cfg.fuzzer_config ~greybox:gb (Stack.info stack) (Rng.create seed)
     in
     let oracle = Oracle.create (Stack.info stack) in
     let process annotated =
       let t0 = now () in
       incr batches;
       let batch = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
       updates := !updates + List.length batch;
       List.iter
         (fun (a : Fuzzer.annotated_update) ->
           if a.mutation = None then incr valid else incr invalid)
         annotated;
       let resp =
         span (fun d -> sp.write <- sp.write +. d) (fun () -> Stack.write stack { Request.updates = batch })
       in
       let read_back = span (fun d -> sp.read <- sp.read +. d) (fun () -> Stack.read stack) in
       let found =
         span (fun d -> sp.judge <- sp.judge +. d) (fun () ->
             Oracle.judge_batch oracle batch resp ~read_back)
       in
       incidents := !incidents + List.length found;
       (if not (Stack.crashed stack) then
          span (fun d -> sp.probe <- sp.probe +. d) (fun () ->
              let tables =
                List.sort_uniq String.compare
                  (List.map (fun (u : Request.update) -> u.entry.e_table) batch)
              in
              let novel = ref 0 in
              for _ = 1 to probes_per_batch do
                let before = Greybox.snapshot gb tele in
                let port, bytes = Greybox.probe_packet gb in
                Telemetry.incr tele "fuzzer.greybox.probes";
                ignore (Stack.inject stack ~ingress_port:port bytes);
                novel :=
                  !novel
                  + Greybox.observe gb tele ~before ~tables ~seed:(Greybox.Packet (port, bytes)) ();
                sp.probes <- sp.probes + 1
              done;
              if !novel > 0 then
                Greybox.admit gb
                  (Greybox.Batch (List.map (fun (u : Request.update) -> u.entry) batch))
                  ~energy:!novel));
       sp.batch_costs <- (now () -. t0, List.length batch) :: sp.batch_costs;
       if Stack.crashed stack then raise Exit
     in
     let generate f = span (fun d -> sp.fuzzer <- sp.fuzzer +. d) f in
     try
       List.iter
         (fun batch ->
           if !incidents >= cfg.max_incidents then raise Exit;
           process batch)
         (generate (fun () -> Fuzzer.sweep fuzzer));
       for _ = 1 to cfg.batches do
         if !incidents >= cfg.max_incidents then raise Exit;
         process (generate (fun () -> Fuzzer.next_batch fuzzer))
       done
     with Exit -> ());
  ( { st_batches = !batches; st_updates = !updates; st_valid = !valid; st_invalid = !invalid;
      st_novel = Greybox.novel_edges gb; st_corpus = Greybox.corpus_size gb;
      st_incidents = !incidents },
    State.total (Stack.server_state stack) )

(* Per-update cost of the last quarter of batches over the first. *)
let cost_growth batch_costs =
  let costs = Array.of_list (List.rev batch_costs) in
  let q = Array.length costs / 4 in
  let per_update a =
    let s = Array.fold_left (fun acc (t, _) -> acc +. t) 0. a in
    let u = Array.fold_left (fun acc (_, n) -> acc + n) 0 a in
    ratio s (float_of_int u)
  in
  if q = 0 then 0.
  else
    ratio
      (per_update (Array.sub costs (Array.length costs - q) q))
      (per_update (Array.sub costs 0 q))

(* Gate: a control-plane catalogue fault must surface as an incident. *)
let fault_detected seed =
  let fault =
    pins_fault program (Workload.generate ~seed program Workload.small) (fun f ->
        match f.kind with Fault.Delete_leaves_entry _ -> true | _ -> false)
  in
  let c = campaign ~faults:[ fault ] seed in
  (fault.id, match c.stats with Ok s -> s.st_incidents > 0 | Error _ -> false)

(* Model and campaign config, then a warm-up campaign: the directed
   sweep alone (no random batches) on a fresh stack. *)
let setup seed =
  let incidents, _ =
    Control_campaign.run (Stack.create program) { (config seed) with batches = 0 }
  in
  if incidents <> [] then
    failwith "perfbench: warm-up campaign reported incidents on a fault-free stack"

(* Incidents on the fault-free stack, plus one for a campaign that raised. *)
let failures c = match c.stats with Ok s -> s.st_incidents | Error _ -> 1

let run ~seed ~seconds ~trace =
  let host = Host.create () in
  let setup_times =
    Array.init setup_reps (fun _ -> snd (timed (fun () -> setup seed)) *. Host.factor host)
  in
  let t0 = now () in
  (* The first round tries candidate seeds until [campaign_seeds] complete;
     later rounds rerun those. A traced run follows every untraced round
     with a traced replay of the same seeds and needs one of each. *)
  let raised = ref [] and untraced_totals = totals () in
  let campaign s =
    let c = campaign ~totals:untraced_totals s in
    let f = Host.factor host in
    { c with wall = c.wall *. f; inject_s = c.inject_s *. f }
  in
  let rec first_round i acc =
    if List.length acc = campaign_seeds then List.rev acc
    else if i = max_tries then
      failwith
        (Printf.sprintf "perfbench: %d of %d control campaigns raised" (List.length !raised) i)
    else begin
      let s = candidate_seed seed i in
      let c = campaign s in
      match c.stats with
      | Ok _ -> first_round (i + 1) ((s, c) :: acc)
      | Error e ->
          raised := (s, e) :: !raised;
          first_round (i + 1) acc
    end
  in
  let first = first_round 0 [] in
  let seeds = List.map fst first in
  let untraced = ref (List.rev first) and traced = ref [] in
  let rounds = ref 1 in
  while now () -. t0 < seconds || (trace && !rounds < 2) do
    if trace && !rounds mod 2 = 1 then
      List.iter
        (fun s ->
          let sp =
            { fuzzer = 0.; write = 0.; read = 0.; judge = 0.; probe = 0.; probes = 0;
              batch_costs = [] }
          in
          let (st, entries), wall = timed (fun () -> replay s sp) in
          ignore (Host.factor host);
          traced := (s, st, entries, wall, sp) :: !traced)
        seeds
    else untraced := List.rev_map (fun s -> (s, campaign s)) seeds @ !untraced;
    incr rounds
  done;
  let peak_rss = peak_rss_mb () in
  let pairs = List.rev !untraced in
  let campaigns = List.map snd pairs in
  let n = List.length campaigns in
  (* Per seed, the stats of its first campaign: every repeat and every
     traced replay must reproduce them. *)
  let reference s = (List.assoc s pairs).stats in
  let deterministic = List.for_all (fun (s, c) -> c.stats = reference s) pairs in
  let replay_ok = List.for_all (fun (s, st, _, _, _) -> Ok st = reference s) !traced in
  let fault_id, detected = fault_detected (List.hd seeds) in
  let next_seed = candidate_seed (seed + 1) 0 in
  let next_clean =
    match (campaign next_seed).stats with
    | Ok s -> s.st_incidents = 0
    | Error e ->
        raised := (next_seed, e) :: !raised;
        false
  in
  let updates_of c = match c.stats with Ok s -> s.st_updates | Error _ -> 0 in
  let total_updates = List.fold_left (fun a c -> a + updates_of c) 0 campaigns in
  let failed = List.fold_left (fun a c -> a + failures c) (List.length !raised) campaigns in
  let walls = Array.of_list (List.map (fun c -> c.wall) campaigns) in
  let total_wall = sum walls in
  let notes =
    List.map
      (fun s ->
        Printf.sprintf "campaign seed %d: %s" s
          (match reference s with Ok st -> pp_stats st | Error e -> "raised " ^ e))
      seeds
    @ List.rev_map
        (fun (s, e) -> Printf.sprintf "FAILED: campaign seed %d raised %s" s e)
        !raised
    @ [ Printf.sprintf "gate: %d campaigns, repeats identical: %b" n deterministic;
        Printf.sprintf "gate: seeded fault %s %s" fault_id
          (if detected then "detected" else "NOT detected");
        Printf.sprintf "gate: seed %d inputs incident-free: %b" (seed + 1) next_clean;
        Host.note host ]
    @
    if trace then
      [ Printf.sprintf "gate: traced replay reproduces the campaign stats: %b" replay_ok ]
    else []
  in
  let metrics, accounting =
    if not trace then begin
      (* Greybox probes are the packets this workload injects; one sample
         per campaign of their mean [switch.inject] time. *)
      let per_packet =
        Array.of_list
          (List.map (fun c -> 1e6 *. ratio c.inject_s (float_of_int c.injects)) campaigns)
      in
      let probes = List.fold_left (fun a c -> a + c.injects) 0 campaigns in
      let inject_s = List.fold_left (fun a c -> a +. c.inject_s) 0. campaigns in
      ( [ metric ~n:setup_reps "setup_s" "s" (median setup_times);
        metric ~n "verdict_s" "s" (median walls);
        metric ~n:probes "packets_per_s" "1/s"
          (ratio (float_of_int probes) inject_s);
        metric ~n "packet_p50_us" "us" (quantile 0.5 per_packet);
        metric ~n "packet_p99_us" "us" (quantile 0.99 per_packet);
        metric ~n:total_updates "updates_per_s" "1/s" (float_of_int total_updates /. total_wall);
        metric "peak_rss_mb" "MB" peak_rss ],
        [] )
    end
    else begin
      let reps = List.length !traced in
      let sum_sp f = List.fold_left (fun a (_, _, _, _, s) -> a +. f s) 0. !traced in
      let sum_st f = List.fold_left (fun a (_, st, _, _, _) -> a + f st) 0 !traced in
      let traced_updates = sum_st (fun st -> st.st_updates) in
      let traced_batches = sum_st (fun st -> st.st_batches) in
      let per_update x = 1e6 *. ratio x (float_of_int traced_updates) in
      let replay_wall = List.fold_left (fun a (_, _, _, w, _) -> a +. w) 0. !traced in
      let attributed = sum_sp (fun s -> s.fuzzer +. s.write +. s.read +. s.judge +. s.probe) in
      let probes = List.fold_left (fun a (_, _, _, _, s) -> a + s.probes) 0 !traced in
      let final_entries =
        Array.of_list (List.map (fun (_, _, e, _, _) -> float_of_int e) !traced)
      in
      let growth =
        Array.of_list (List.map (fun (_, _, _, _, s) -> cost_growth s.batch_costs) !traced)
      in
      (* The untraced campaigns of the traced seeds, for the overhead. *)
      let untraced_wall =
        List.fold_left (fun a (s, _, _, _, _) -> a +. (List.assoc s pairs).raw_wall) 0. !traced
      in
      let layers = registry_layers ~units:(float_of_int n) (total_delta untraced_totals) in
      let per_rep f = sum_sp f /. float_of_int reps in
      ( layers
      @ [ metric ~n:traced_updates "fuzzer.us_per_update" "us"
            (per_update (sum_sp (fun s -> s.fuzzer)));
          metric ~n:traced_updates "switch.write_us_per_update" "us"
            (per_update (sum_sp (fun s -> s.write)));
          metric ~n:traced_batches "switch.read_ms_per_batch" "ms"
            (1e3 *. ratio (sum_sp (fun s -> s.read)) (float_of_int traced_batches));
          metric ~n:traced_updates "oracle.judge_us_per_update" "us"
            (per_update (sum_sp (fun s -> s.judge)));
          metric ~n:probes "fuzzer.greybox_probe_us" "us"
            (1e6 *. ratio (sum_sp (fun s -> s.probe)) (float_of_int probes));
          metric ~n:reps "p4runtime.final_entries" "count" (median final_entries);
          metric ~n:reps "control.cost_growth" "ratio" (median growth);
          metric ~n:total_updates "control.alloc_words_per_update" "words"
            (ratio
               (List.fold_left (fun a c -> a +. c.alloc_words) 0. campaigns)
               (float_of_int total_updates));
          metric ~n:reps "control.unattributed_s" "s"
            ((replay_wall -. attributed) /. float_of_int reps);
          metric ~n:(reps + n) "trace.overhead_pct" "%"
            (100. *. ratio (replay_wall -. untraced_wall) untraced_wall) ],
        [ Printf.sprintf
            "accounting, per replayed campaign (n=%d): fuzzer %.4g + write %.4g + read %.4g + \
             judge %.4g + probes %.4g + unattributed %.4g = %.4g s, the mean replay wall clock"
            reps (per_rep (fun s -> s.fuzzer)) (per_rep (fun s -> s.write))
            (per_rep (fun s -> s.read)) (per_rep (fun s -> s.judge)) (per_rep (fun s -> s.probe))
            ((replay_wall -. attributed) /. float_of_int reps)
            (replay_wall /. float_of_int reps) ] )
    end
  in
  { correct = failed = 0 && deterministic && replay_ok && detected && next_clean;
    attempted = total_updates + List.length !raised;
    failed;
    metrics;
    notes = notes @ accounting }
