module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Fingerprint = Switchv_triage.Fingerprint
module Coverage = Switchv_obs.Coverage

type detector = Fuzzer | Symbolic | Fabric

let detector_to_string = function
  | Fuzzer -> "p4-fuzzer"
  | Symbolic -> "p4-symbolic"
  | Fabric -> "p4-fabric"

type context = {
  ctx_table : string option;
  ctx_goal : string option;
  ctx_mutation : string option;
  ctx_batch : int option;
  ctx_hop : string option;
}

let context ?table ?goal ?mutation ?batch ?hop () =
  { ctx_table = table; ctx_goal = goal; ctx_mutation = mutation;
    ctx_batch = batch; ctx_hop = hop }

type incident = {
  detector : detector;
  kind : string;
  detail : string;
  context : context option;
  repro : Repro.t option;
}

let incident ?context ?repro detector ~kind ~detail =
  { detector; kind; detail; context; repro }

let pp_context fmt c =
  let parts =
    List.filter_map Fun.id
      [ Option.map (fun t -> "table=" ^ t) c.ctx_table;
        Option.map (fun g -> "goal=" ^ g) c.ctx_goal;
        Option.map (fun m -> "mutation=" ^ m) c.ctx_mutation;
        Option.map (fun b -> Printf.sprintf "batch=%d" b) c.ctx_batch;
        Option.map (fun h -> "hop=" ^ h) c.ctx_hop ]
  in
  if parts <> [] then Format.fprintf fmt " {%s}" (String.concat ", " parts)

let pp_incident fmt i =
  Format.fprintf fmt "%s [%s] %s" (detector_to_string i.detector) i.kind i.detail;
  Option.iter (pp_context fmt) i.context

let fingerprint i =
  let get f = Option.bind i.context f in
  Fingerprint.make
    ~detector:(detector_to_string i.detector)
    ~kind:i.kind
    ?table:(get (fun c -> c.ctx_table))
    ?goal:(get (fun c -> c.ctx_goal))
    ?mutation:(get (fun c -> c.ctx_mutation))
    ?hop:(get (fun c -> c.ctx_hop))
    ~detail:i.detail ()

type cluster = {
  cl_fingerprint : Fingerprint.t;
  cl_count : int;
  cl_example : incident;
}

let cluster_by incident_of items =
  let groups = Fingerprint.cluster (fun x -> fingerprint (incident_of x)) items in
  Telemetry.incr (Telemetry.get ()) "triage.duplicates_collapsed"
    ~n:(List.length items - List.length groups);
  List.map
    (fun (x, fp, count) ->
      (x, { cl_fingerprint = fp; cl_count = count; cl_example = incident_of x }))
    groups

type control_stats = {
  cs_batches : int;
  cs_updates : int;
  cs_valid_updates : int;
  cs_invalid_updates : int;
  cs_novel_edges : int;
  cs_corpus_seeds : int;
  cs_duration : float;
}

type data_stats = {
  ds_entries_installed : int;
  ds_goals : int;
  ds_covered : int;
  ds_uncoverable : int;
  ds_tainted_goals : int;
  ds_packets_tested : int;
  ds_generation_time : float;
  ds_testing_time : float;
  ds_cache_hits : int;
  ds_cache_misses : int;
}

type fabric_stats = {
  fs_shape : string;
  fs_switches : int;
  fs_links : int;
  fs_flows : int;
  fs_delivered : int;
  fs_dropped : int;
  fs_hops : int;
  fs_localized : int;
  fs_duration : float;
  fs_switch_coverage : (int * int * int) list;
}

type t = {
  program_name : string;
  control_incidents : incident list;
  data_incidents : incident list;
  fabric_incidents : incident list;
  control_stats : control_stats option;
  data_stats : data_stats option;
  fabric_stats : fabric_stats option;
  clusters : cluster list;
  telemetry : Telemetry.snapshot option;
  coverage : Coverage.t option;
}

let empty program_name =
  { program_name; control_incidents = []; data_incidents = [];
    fabric_incidents = []; control_stats = None; data_stats = None;
    fabric_stats = None; clusters = []; telemetry = None; coverage = None }

let incidents t = t.control_incidents @ t.data_incidents @ t.fabric_incidents

let clean t = incidents t = []

let detected_by t =
  if t.control_incidents <> [] then Some Fuzzer
  else if t.data_incidents <> [] then Some Symbolic
  else if t.fabric_incidents <> [] then Some Fabric
  else None

let pp fmt t =
  Format.fprintf fmt "@[<v>SwitchV report for %s@," t.program_name;
  (match t.control_stats with
  | Some s ->
      Format.fprintf fmt
        "control plane: %d batches, %d updates (%d valid / %d invalid) in %.2fs@,"
        s.cs_batches s.cs_updates s.cs_valid_updates s.cs_invalid_updates s.cs_duration;
      (* Only with the feedback loop on: --no-greybox reports stay
         byte-identical to the pre-greybox format. *)
      if s.cs_novel_edges > 0 || s.cs_corpus_seeds > 0 then
        Format.fprintf fmt "greybox: %d novel edges, %d corpus seeds@,"
          s.cs_novel_edges s.cs_corpus_seeds
  | None -> ());
  (match t.data_stats with
  | Some s ->
      Format.fprintf fmt
        "data plane: %d entries, %d/%d goals covered (%d uncoverable, %d tainted), %d packets, gen %.2fs, test %.2fs, cache %d hit / %d miss@,"
        s.ds_entries_installed s.ds_covered s.ds_goals s.ds_uncoverable
        s.ds_tainted_goals s.ds_packets_tested s.ds_generation_time
        s.ds_testing_time s.ds_cache_hits s.ds_cache_misses
  | None -> ());
  (match t.fabric_stats with
  | Some s ->
      Format.fprintf fmt
        "fabric: %s topology, %d switches, %d links; %d flows (%d delivered / %d dropped), %d hops, %d localized, %.2fs@,"
        s.fs_shape s.fs_switches s.fs_links s.fs_flows s.fs_delivered
        s.fs_dropped s.fs_hops s.fs_localized s.fs_duration;
      List.iter
        (fun (sw, covered, total) ->
          Format.fprintf fmt "  sw%d coverage: %d/%d edges (%.1f%%)@," sw
            covered total
            (if total = 0 then 0. else 100. *. float_of_int covered /. float_of_int total))
        s.fs_switch_coverage
  | None -> ());
  let all = incidents t in
  if all = [] then Format.fprintf fmt "no incidents@,"
  else begin
    Format.fprintf fmt "%d incident(s):@," (List.length all);
    List.iter (fun i -> Format.fprintf fmt "  %a@," pp_incident i) all
  end;
  let miscompares = List.fold_left (fun acc c -> acc + c.cl_count) 0 t.clusters in
  Format.fprintf fmt "triage: %d miscompare(s) in %d cluster(s)@," miscompares
    (List.length t.clusters);
  List.iter
    (fun c ->
      Format.fprintf fmt "  x%-4d %s" c.cl_count c.cl_fingerprint;
      (match c.cl_example.repro with
      | Some r -> Format.fprintf fmt "  [%a]" Repro.pp r
      | None -> ());
      Format.fprintf fmt "@,")
    t.clusters;
  (match t.coverage with
  | Some cov -> Format.fprintf fmt "%a@," Coverage.pp cov
  | None -> ());
  (match t.telemetry with
  | Some snap -> Format.fprintf fmt "%a" Telemetry.pp_snapshot snap
  | None -> ());
  Format.fprintf fmt "@]"

(* --- JSON ----------------------------------------------------------------- *)

module Json = Telemetry.Json

let control_stats_to_json s =
  Json.obj
    [ ("batches", Json.int s.cs_batches); ("updates", Json.int s.cs_updates);
      ("valid_updates", Json.int s.cs_valid_updates);
      ("invalid_updates", Json.int s.cs_invalid_updates);
      ("novel_edges", Json.int s.cs_novel_edges);
      ("corpus_seeds", Json.int s.cs_corpus_seeds);
      ("duration_s", Json.num s.cs_duration) ]

let data_stats_to_json s =
  Json.obj
    [ ("entries_installed", Json.int s.ds_entries_installed);
      ("goals", Json.int s.ds_goals); ("covered", Json.int s.ds_covered);
      ("uncoverable", Json.int s.ds_uncoverable);
      ("tainted_goals", Json.int s.ds_tainted_goals);
      ("packets_tested", Json.int s.ds_packets_tested);
      ("generation_time_s", Json.num s.ds_generation_time);
      ("testing_time_s", Json.num s.ds_testing_time);
      ("cache_hits", Json.int s.ds_cache_hits);
      ("cache_misses", Json.int s.ds_cache_misses) ]

let opt f = function Some v -> f v | None -> "null"

let fabric_stats_to_json s =
  Json.obj
    [ ("shape", Json.str s.fs_shape);
      ("switches", Json.int s.fs_switches);
      ("links", Json.int s.fs_links);
      ("flows", Json.int s.fs_flows);
      ("delivered", Json.int s.fs_delivered);
      ("dropped", Json.int s.fs_dropped);
      ("hops", Json.int s.fs_hops);
      ("localized", Json.int s.fs_localized);
      ("duration_s", Json.num s.fs_duration);
      ( "switch_coverage",
        Json.arr
          (List.map
             (fun (sw, covered, total) ->
               Json.obj
                 [ ("switch", Json.int sw); ("covered", Json.int covered);
                   ("total", Json.int total) ])
             s.fs_switch_coverage) ) ]

let context_to_json c =
  let field name = function Some v -> [ (name, Json.str v) ] | None -> [] in
  Json.obj
    (field "table" c.ctx_table @ field "goal" c.ctx_goal
    @ field "mutation" c.ctx_mutation
    @ (match c.ctx_batch with Some b -> [ ("batch", Json.int b) ] | None -> [])
    @ field "hop" c.ctx_hop)

let incident_to_json (origin, i) =
  (* Tag the campaign each incident came from; detector alone is ambiguous
     once fuzzed-entry passes re-use kinds. *)
  Json.obj
    [ ("campaign", Json.str origin);
      ("detector", Json.str (detector_to_string i.detector));
      ("kind", Json.str i.kind); ("detail", Json.str i.detail);
      ("context", opt context_to_json i.context);
      ("fingerprint", Json.str (fingerprint i));
      ("repro", opt Repro.to_json i.repro) ]

(* --- IPC (de)serialization -------------------------------------------------

   Sharded campaigns run in forked workers and stream incidents + stats back
   to the parent as JSON. These converters are exact inverses over every
   value the campaigns produce, which is what makes a merged parallel report
   identical to the sequential one. *)

module Jsonp = Switchv_triage.Jsonp

let detector_of_string = function
  | "p4-fuzzer" -> Some Fuzzer
  | "p4-symbolic" -> Some Symbolic
  | "p4-fabric" -> Some Fabric
  | _ -> None

let context_of_json j =
  let str name = Option.bind (Jsonp.member name j) Jsonp.to_str in
  { ctx_table = str "table";
    ctx_goal = str "goal";
    ctx_mutation = str "mutation";
    ctx_batch = Option.bind (Jsonp.member "batch" j) Jsonp.to_int;
    ctx_hop = str "hop" }

let incident_ipc_to_json i =
  Json.obj
    [ ("detector", Json.str (detector_to_string i.detector));
      ("kind", Json.str i.kind); ("detail", Json.str i.detail);
      ("context", opt context_to_json i.context);
      ("repro", opt Repro.to_json i.repro) ]

let incident_of_ipc_json j =
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (Jsonp.member name j) Jsonp.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "incident: missing field %S" name)
  in
  let* det = str "detector" in
  let* detector =
    match detector_of_string det with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "incident: unknown detector %S" det)
  in
  let* kind = str "kind" in
  let* detail = str "detail" in
  let context =
    match Jsonp.member "context" j with
    | Some (Jsonp.Obj _ as cj) -> Some (context_of_json cj)
    | _ -> None
  in
  let* repro =
    match Jsonp.member "repro" j with
    | None | Some Jsonp.Null -> Ok None
    | Some rj -> Result.map Option.some (Repro.of_json rj)
  in
  Ok { detector; kind; detail; context; repro }

let control_stats_of_json j =
  let ( let* ) = Result.bind in
  let int name =
    match Option.bind (Jsonp.member name j) Jsonp.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "control_stats: missing field %S" name)
  in
  let num name =
    match Option.bind (Jsonp.member name j) Jsonp.to_num with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "control_stats: missing field %S" name)
  in
  let* cs_batches = int "batches" in
  let* cs_updates = int "updates" in
  let* cs_valid_updates = int "valid_updates" in
  let* cs_invalid_updates = int "invalid_updates" in
  let* cs_novel_edges = int "novel_edges" in
  let* cs_corpus_seeds = int "corpus_seeds" in
  let* cs_duration = num "duration_s" in
  Ok { cs_batches; cs_updates; cs_valid_updates; cs_invalid_updates;
       cs_novel_edges; cs_corpus_seeds; cs_duration }

let empty_control_stats =
  { cs_batches = 0; cs_updates = 0; cs_valid_updates = 0; cs_invalid_updates = 0;
    cs_novel_edges = 0; cs_corpus_seeds = 0; cs_duration = 0. }

let merge_control_stats ss =
  (* Durations are clamped at zero per shard: a worker whose clock stepped
     backwards must not subtract time from the merged total. *)
  List.fold_left
    (fun acc s ->
      { cs_batches = acc.cs_batches + s.cs_batches;
        cs_updates = acc.cs_updates + s.cs_updates;
        cs_valid_updates = acc.cs_valid_updates + s.cs_valid_updates;
        cs_invalid_updates = acc.cs_invalid_updates + s.cs_invalid_updates;
        (* Shard-local novelty counts: the sum can double-count an edge two
           shards each discovered independently — reported as the total
           feedback signal observed, not a global distinct-edge count. *)
        cs_novel_edges = acc.cs_novel_edges + s.cs_novel_edges;
        cs_corpus_seeds = acc.cs_corpus_seeds + s.cs_corpus_seeds;
        cs_duration = acc.cs_duration +. Float.max 0. s.cs_duration })
    empty_control_stats ss

let to_json t =
  Json.obj
    [ ("program", Json.str t.program_name);
      ("clean", Json.bool (clean t));
      ("control_stats", opt control_stats_to_json t.control_stats);
      ("data_stats", opt data_stats_to_json t.data_stats);
      ("fabric_stats", opt fabric_stats_to_json t.fabric_stats);
      ( "incidents",
        Json.arr
          (List.map incident_to_json
             (List.map (fun i -> ("control", i)) t.control_incidents
             @ List.map (fun i -> ("data", i)) t.data_incidents
             @ List.map (fun i -> ("fabric", i)) t.fabric_incidents)) );
      ( "clusters",
        Json.arr
          (List.map
             (fun c ->
               Json.obj
                 [ ("fingerprint", Json.str c.cl_fingerprint);
                   ("count", Json.int c.cl_count) ])
             t.clusters) );
      ("telemetry", opt Telemetry.snapshot_to_json t.telemetry);
      ("coverage", opt Coverage.to_json t.coverage) ]
