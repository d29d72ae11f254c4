(* validate_pins: the nightly verdict. [Harness.validate] with its default
   config on the middleblock model, over a scaled Inst1 entry set per seed
   in a fixed list derived from the workload seed. SMT generation
   dominates. *)

open Common
module Harness = Switchv_core.Harness
module Report = Switchv_core.Report
module Workload = Switchv_sai.Workload
module Middleblock = Switchv_sai.Middleblock

let program = Middleblock.program

(* 0.2 x Inst1 = 160 entries: a campaign takes a couple of seconds, over
   80% of it in [campaign.generation]. *)
let scale = 0.2

(* Entry sets per run; one round validates each once. The cost of a
   campaign differs by about 8% (standard deviation) from one entry set to
   the next, so a run averages over several. *)
let entry_sets = 8
let setup_reps = 5

let entry_seeds seed = List.init entry_sets (fun k -> (seed * entry_sets) + k + 1)
let mk_stack () = Stack.create program

(* Only the data entries vary with the seed: the default config fixes the
   control campaign (seed 7, 20 batches), which does not depend on the
   entries. *)
let config_for entry_seed =
  Harness.default_config
    (Workload.generate ~seed:entry_seed program (Workload.scaled scale Workload.inst1))

(* Model, entry sets and configs, then a warm-up campaign on the small
   profile (two control batches) that exercises every stage once. *)
let setup seed =
  let configs = List.map config_for (entry_seeds seed) in
  let warm = Harness.default_config (Workload.generate ~seed program Workload.small) in
  let warm = { warm with control = { warm.control with batches = 2 } } in
  if not (Report.clean (Harness.validate mk_stack warm)) then
    failwith "perfbench: warm-up campaign reported incidents on a fault-free stack";
  configs

(* What a run keeps of one campaign: a few numbers, so its memory does not
   grow with the number of campaigns a faster build completes. *)
type campaign = {
  wall : float;  (** host-normalised once [normalise]d *)
  raw_wall : float;  (** as measured *)
  raised : bool;
  incidents : bool;
  tested : int;  (** packets tested *)
  updates : int;  (** control-phase updates *)
  control_s : float;  (** [campaign.control] span time *)
}

(* One campaign; its registry delta is added to [totals] when given. *)
let campaign ?totals mk config =
  let (report, wall), delta =
    registry_delta (fun () ->
        timed (fun () -> try Some (Harness.validate mk config) with _ -> None))
  in
  Option.iter (fun t -> add_delta t delta) totals;
  let stat f = match report with Some r -> f r | None -> 0 in
  { wall;
    raw_wall = wall;
    raised = report = None;
    incidents = (match report with Some r -> not (Report.clean r) | None -> false);
    tested =
      stat (fun r -> match r.Report.data_stats with Some ds -> ds.ds_packets_tested | None -> 0);
    updates = stat (fun r -> match r.control_stats with Some cs -> cs.cs_updates | None -> 0);
    control_s = span_total delta "campaign.control" }

(* [c] with its times host-normalised by the factor measured right after
   it. *)
let normalise host c =
  let f = Host.factor host in
  { c with wall = c.wall *. f; control_s = c.control_s *. f }

(* Gate: a seeded PINS fault must surface as an incident. *)
let fault_detected config =
  let fault =
    pins_fault program config.Harness.data_entries (fun f -> f.id = "PINS-019")
  in
  (fault.id, (campaign (fun () -> Stack.create ~faults:[ fault ] program) config).incidents)

(* Gate: the first entry set of the next seed validates clean too. *)
let next_seed_clean seed =
  let c = campaign mk_stack (config_for (List.hd (entry_seeds (seed + 1)))) in
  not (c.raised || c.incidents)

let run ~seed ~seconds ~trace =
  let host = Host.create () in
  let setups =
    List.init setup_reps (fun _ ->
        let configs, dt = timed (fun () -> setup seed) in
        (configs, dt *. Host.factor host))
  in
  let setup_s = median (Array.of_list (List.map snd setups)) in
  let configs = fst (List.hd setups) in
  (* Whole rounds, so every run weighs each entry set equally. A traced run
     alternates untraced and traced rounds and needs one of each. *)
  let untraced = ref [] and traced = ref [] and traced_totals = totals () in
  let t0 = now () in
  let rounds = ref 0 in
  (* Every campaign starts from a full collection, as a nightly run starts
     from a fresh process: it collects none of the garbage another campaign
     left behind. *)
  let timed_campaign ?totals config =
    Gc.full_major ();
    normalise host (campaign ?totals mk_stack config)
  in
  while now () -. t0 < seconds || (trace && !rounds < 2) do
    if trace && !rounds mod 2 = 1 then
      traced := List.map (timed_campaign ~totals:traced_totals) configs @ !traced
    else untraced := List.map timed_campaign configs @ !untraced;
    incr rounds
  done;
  let peak_rss = peak_rss_mb () in
  let all = !untraced @ !traced in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun c -> c.raised || c.incidents) all) in
  let fault_id, detected = fault_detected (List.hd configs) in
  let next_clean = next_seed_clean seed in
  let walls cs = Array.of_list (List.map (fun c -> c.wall) cs) in
  let notes =
    [ Printf.sprintf "input: %d entry sets of %d entries, %d campaigns" entry_sets
        (List.length (List.hd configs).Harness.data_entries) attempted;
      Printf.sprintf
        "gate: %d/%d campaigns clean on a fault-free stack (%d with incidents, %d raised)"
        (attempted - failed) attempted
        (List.length (List.filter (fun c -> c.incidents) all))
        (List.length (List.filter (fun c -> c.raised) all));
      Printf.sprintf "gate: seeded fault %s %s" fault_id
        (if detected then "detected" else "NOT detected");
      Printf.sprintf "gate: seed %d inputs validate clean: %b" (seed + 1) next_clean;
      Host.note host ]
  in
  let metrics, accounting =
    if not trace then begin
      let n = List.length !untraced in
      let total f = List.fold_left (fun a c -> a + f c) 0 !untraced in
      let tested = total (fun c -> c.tested) and written = total (fun c -> c.updates) in
      (* The verdict's cost per tested packet — generation, testing and
         the rest of the campaign — one sample per entry set: its median
         over the rounds, so that one campaign the host slowed does not set
         the tail. Rounds are whole and keep the order of [configs], so
         campaign [j] validated entry set [j mod entry_sets]. The testing
         phase alone lasts tens of milliseconds, too short to time steadily;
         its share is the per-layer [core.testing_s]. *)
      let per_packet =
        let costs = List.map (fun c -> 1e6 *. ratio c.wall (float_of_int c.tested)) !untraced in
        Array.init entry_sets (fun i ->
            median (Array.of_list (List.filteri (fun j _ -> j mod entry_sets = i) costs)))
      in
      ( [ metric ~n:setup_reps "setup_s" "s" setup_s;
        metric ~n "verdict_s" "s" (median (walls !untraced));
        metric ~n:tested "packets_per_s" "1/s"
          (ratio (float_of_int tested) (sum (walls !untraced)));
        metric ~n:entry_sets "packet_p50_us" "us" (quantile 0.5 per_packet);
        metric ~n:entry_sets "packet_p99_us" "us" (quantile 0.99 per_packet);
        metric ~n:written "updates_per_s" "1/s"
          (ratio (float_of_int written)
             (List.fold_left (fun a c -> a +. c.control_s) 0. !untraced));
        metric "peak_rss_mb" "MB" peak_rss ],
        [] )
    end
    else begin
      let units = float_of_int (List.length !traced) in
      let layers = registry_layers ~units (total_delta traced_totals) in
      let verdict = sum (Array.of_list (List.map (fun c -> c.raw_wall) !traced)) /. units in
      let phase name = (List.find (fun (m : metric) -> m.name = name) layers).value in
      let control = phase "core.control_s" and generation = phase "core.generation_s" in
      let testing = phase "core.testing_s" in
      let unattributed = verdict -. control -. generation -. testing in
      let overhead =
        100. *. ratio (median (walls !traced) -. median (walls !untraced)) (median (walls !untraced))
      in
      ( layers
        @ [ metric ~n:(List.length !traced) "core.unattributed_s" "s" unattributed;
            metric ~n:(List.length all) "trace.overhead_pct" "%" overhead ],
        [ Printf.sprintf
            "accounting, per traced campaign (n=%d): control %.4g + generation %.4g + testing \
             %.4g + unattributed %.4g = %.4g s, the mean campaign wall clock"
            (List.length !traced) control generation testing unattributed verdict ] )
    end
  in
  { correct = failed = 0 && detected && next_clean;
    attempted;
    failed;
    metrics;
    notes = notes @ accounting }
