module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp
module Evaluator = Switchv_bmv2.Evaluator
module Compile = Switchv_bmv2.Compile
module Workload = Switchv_sai.Workload
module Packet = Switchv_packet.Packet
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Jsonp = Switchv_triage.Jsonp
module Dataplane = Switchv_oracle.Dataplane
module Endtoend = Switchv_oracle.Endtoend
module Topo = Switchv_topo.Topo
module Fabric = Switchv_topo.Fabric
module Routes = Switchv_topo.Routes
module Shard = Switchv_parallel.Shard
module Pool = Switchv_parallel.Pool
module Coverage = Switchv_obs.Coverage

let sp = Printf.sprintf

type config = {
  shape : Topo.shape;
  switches : int;
  spines : int option;
  seed : int;
  budget : int option;
  max_incidents : int;
  shards : int;
  packet_out : bool;
  faults : (int * Fault.t list) list;
  minimize : bool;
  evaluator : Evaluator.t;
}

let default_config shape switches =
  { shape; switches; spines = None; seed = 0; budget = None;
    max_incidents = 25; shards = 1; packet_out = true; faults = [];
    minimize = false; evaluator = Compile.evaluator }

(* --- the flow suite --------------------------------------------------------

   A fixed, enumerable set of end-to-end flows, a pure function of
   (topology, config). Per reachable ordered pair (i, j) over the h-switch
   shortest path: "std" (TTL 64), "ttlmin" (TTL h+1 — delivers with TTL 1;
   one less would die en route), "ttlexp" (TTL h — must punt+drop at the
   last hop, never escape), and "dscp" (TTL 64, DSCP 46 — exercises the
   per-hop mirror sessions). Per switch: an unadmitted TTL-1 probe (host
   MAC, so L3-admit misses and the model must drop it *unpunted* — a
   TTL-trap chip bug punts it) and an LLDP frame (no trap entries are
   installed, so a spurious-punt bug diverges). Per switch, when enabled:
   a submit-to-ingress packet-out and a directed packet-out across the
   first fabric link. *)

type inject =
  | Edge of { in_switch : int; in_bytes : string }
  | Po of { in_switch : int; in_po : Request.packet_out }

type flow = { fl_id : string; fl_inject : inject }

let flow_packet ?(dscp = 0) ~entry ~src ~dst ~ttl () =
  let p = Packet.empty in
  let p =
    Packet.push p
      (Packet.ethernet_frame ~src:(Routes.host_mac_string src)
         ~dst:(Routes.router_mac_string entry) ~ether_type:0x0800 ())
  in
  let p =
    Packet.push p
      (Packet.ipv4_header ~ttl ~dscp ~src:(Routes.host_ip src)
         ~dst:(Routes.host_ip dst) ())
  in
  let p = Packet.push p (Packet.udp_header ~src_port:49152 ~dst_port:443 ()) in
  { p with Packet.payload = "switchv-fabric-payload" }

let flows topo cfg =
  let n = Topo.switches topo in
  let acc = ref [] in
  let add id inj = acc := { fl_id = id; fl_inject = inj } :: !acc in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match Topo.path topo ~src:i ~dst:j with
      | None -> ()
      | Some p ->
          let h = List.length p in
          let edge ?dscp name ttl =
            add
              (sp "fabric:%s:%d->%d" name i j)
              (Edge
                 { in_switch = i;
                   in_bytes =
                     Packet.to_bytes
                       (flow_packet ?dscp ~entry:i ~src:i ~dst:j ~ttl ()) })
          in
          edge "std" 64;
          edge "ttlmin" (h + 1);
          edge "ttlexp" h;
          edge ~dscp:Routes.mirror_dscp "dscp" 64
    done
  done;
  for k = 0 to n - 1 do
    let unadmitted =
      let p = flow_packet ~entry:k ~src:k ~dst:((k + 1) mod n) ~ttl:1 () in
      Packet.set p ~header:"ethernet" ~field:"dst_addr" (Routes.host_mac k)
    in
    add (sp "fabric:unadmitted:sw%d" k)
      (Edge { in_switch = k; in_bytes = Packet.to_bytes unadmitted });
    let lldp =
      let p =
        Packet.push Packet.empty
          (Packet.ethernet_frame ~src:(Routes.host_mac_string k)
             ~ether_type:0x88CC ())
      in
      { p with Packet.payload = "switchv-lldp" }
    in
    add (sp "fabric:lldp:sw%d" k)
      (Edge { in_switch = k; in_bytes = Packet.to_bytes lldp })
  done;
  if cfg.packet_out then
    for k = 0 to n - 1 do
      let payload = flow_packet ~entry:k ~src:k ~dst:((k + 1) mod n) ~ttl:64 () in
      add (sp "fabric:po:submit:sw%d" k)
        (Po
           { in_switch = k;
             in_po = { Request.po_payload = payload; po_egress_port = None } });
      match Topo.neighbors topo k with
      | [] -> ()
      | nb :: _ ->
          let port =
            match Topo.link_port topo ~src:k ~dst:nb with
            | Some p -> p
            | None -> assert false
          in
          let payload = flow_packet ~entry:nb ~src:k ~dst:nb ~ttl:64 () in
          add (sp "fabric:po:port:sw%d" k)
            (Po
               { in_switch = k;
                 in_po =
                   { Request.po_payload = payload; po_egress_port = Some port } })
    done;
  List.rev !acc

(* --- setup -----------------------------------------------------------------

   Same per-table batching as the data campaign (no batch contains
   internal @refers_to dependencies); rejections become incidents carrying
   the switch as their hop — there is no single-switch replay path for a
   fabric setup failure, so no reproducer. *)

let install stack entries add_reject =
  let batches =
    List.fold_left
      (fun acc (e : Entry.t) ->
        match acc with
        | (table, batch) :: rest when String.equal table e.e_table ->
            (table, e :: batch) :: rest
        | _ -> (e.e_table, [ e ]) :: acc)
      [] entries
    |> List.rev_map (fun (_, batch) -> List.rev batch)
  in
  List.iter
    (fun batch ->
      let updates = List.map Request.insert batch in
      let resp = Stack.write stack { Request.updates } in
      List.iter2
        (fun (u : Request.update) (s : Status.t) ->
          if not (Status.is_ok s) then
            add_reject ~entry:u.entry
              (Format.asprintf "%a: %a" Status.pp s Entry.pp u.entry))
        updates resp.statuses)
    batches

type env = {
  e_topo : Topo.t;
  e_cfg : config;
  e_stacks : Stack.t array;
  e_stack_nodes : Fabric.node array;
  e_model_nodes : Fabric.node array;
  e_model_cfgs : Interp.config array;
  e_oracles : Dataplane.t array;
  e_entries_for : Entry.t list array;
  e_budget : int;
  e_mk_stack : int -> unit -> Stack.t;
}

(* One flow, both fabrics, both checks. [add] enforces the incident
   budget; at most one incident per flow (a localized hop divergence
   preempts the end-to-end verdict — it is the same mismatch, better
   attributed). *)
let test_flow env ~tele
    ~(add : ?context:Report.context -> ?repro:Repro.t -> string -> string -> unit)
    ~want_more ~delivered ~dropped ~hops ~localized fl =
  Telemetry.incr tele "topo.flows";
  let budget = env.e_budget in
  let model_trace, switch_trace, po_ref =
    match fl.fl_inject with
    | Edge { in_switch; in_bytes } ->
        ( Fabric.forward ~budget env.e_topo env.e_model_nodes ~switch:in_switch
            ~port:Topo.edge_port in_bytes,
          Fabric.forward ~budget env.e_topo env.e_stack_nodes ~switch:in_switch
            ~port:Topo.edge_port in_bytes,
          None )
    | Po { in_switch; in_po } ->
        let bytes = Packet.to_bytes in_po.Request.po_payload in
        let model_b =
          Evaluator.run_packet_out env.e_cfg.evaluator env.e_model_cfgs.(in_switch)
            ~egress_port:in_po.Request.po_egress_port in_po.Request.po_payload
        in
        let switch_b = Stack.packet_out env.e_stacks.(in_switch) in_po in
        ( Fabric.forward_from ~budget env.e_topo env.e_model_nodes
            ~switch:in_switch ~ingress_port:0 ~bytes model_b,
          Fabric.forward_from ~budget env.e_topo env.e_stack_nodes
            ~switch:in_switch ~ingress_port:0 ~bytes switch_b,
          Some model_b )
  in
  let hop_list = switch_trace.Fabric.t_hops in
  Telemetry.incr ~n:(List.length hop_list) tele "topo.hops";
  hops := !hops + List.length hop_list;
  (match switch_trace.Fabric.t_disposition with
  | Fabric.Delivered _ ->
      incr delivered;
      Telemetry.incr tele "topo.delivered"
  | Fabric.Dropped _ ->
      incr dropped;
      Telemetry.incr tele "topo.dropped"
  | Fabric.Dead_hop _ ->
      incr dropped;
      Telemetry.incr tele "topo.dropped";
      Telemetry.incr tele "topo.crashed_hops"
  | Fabric.Budget_exhausted _ ->
      incr dropped;
      Telemetry.incr tele "topo.dropped";
      Telemetry.incr tele "topo.loops_detected");
  (* Per-hop judgment: the oracle re-runs the model on each hop's own
     input bytes, so a hop downstream of a perturbation is judged against
     what the model would do with the perturbed packet — only the
     introducing switch diverges. The first hop of a packet-out is
     processed by [run_packet_out], not ingress, so it is excluded here
     and compared against the precomputed reference behaviour instead. *)
  let judged =
    List.mapi
      (fun idx (h : Fabric.hop) ->
        if idx = 0 && po_ref <> None then None
        else
          match
            Dataplane.judge_info
              env.e_oracles.(h.Fabric.h_switch)
              ~ingress_port:h.Fabric.h_ingress ~bytes:h.Fabric.h_bytes_in
              ~switch:h.Fabric.h_behavior
          with
          | v -> Some (h, v)
          (* A fault that corrupts bytes into unparseability shows up in
             the end-to-end check; the hop itself cannot be judged. *)
          | exception Interp.Parse_failure _ -> None)
      hop_list
  in
  let po_div =
    match (po_ref, hop_list) with
    | Some model_b, h0 :: _
      when not (Interp.behavior_equal h0.Fabric.h_behavior model_b) ->
        Some (h0, [ model_b ])
    | _ -> None
  in
  let hop_div =
    List.find_map
      (function
        | Some (h, (Dataplane.Diverged bs, _)) -> Some (h, bs) | _ -> None)
      judged
  in
  match (if po_div <> None then po_div else hop_div) with
  | Some (h, model_bs) ->
      if want_more () then begin
        incr localized;
        Telemetry.incr tele "topo.localized";
        let hop = sp "sw%d" h.Fabric.h_switch in
        let repro =
          if po_div <> None then
            (* Packet-out payloads are structured values with no byte-level
               replay path (same limitation as the data campaign). *)
            None
          else begin
            let r =
              Repro.Data
                { dr_entries = env.e_entries_for.(h.Fabric.h_switch);
                  dr_port = h.Fabric.h_ingress;
                  dr_bytes = h.Fabric.h_bytes_in }
            in
            Some
              (if env.e_cfg.minimize then
                 Telemetry.with_span tele "triage.minimize" (fun () ->
                     Harness.minimize_repro
                       (env.e_mk_stack h.Fabric.h_switch)
                       ~max_probes:Harness.ddmin_probes r)
               else r)
          end
        in
        add ?repro
          ~context:(Report.context ~goal:fl.fl_id ~hop ())
          "fabric behavior divergence"
          (Format.asprintf
             "flow %s hop sw%d (ingress %d): switch behaved %a, model admits %a"
             fl.fl_id h.Fabric.h_switch h.Fabric.h_ingress Interp.pp_behavior
             h.Fabric.h_behavior Interp.pp_behavior_set model_bs)
      end
  | None -> (
      let expectation = Endtoend.of_trace model_trace in
      let last_judged =
        List.fold_left
          (fun acc j -> match j with Some x -> Some x | None -> acc)
          None judged
      in
      let bytes_equal a b =
        String.equal a b
        ||
        match last_judged with
        | Some (h, (_, info)) ->
            Dataplane.masked_bytes_equal
              env.e_oracles.(h.Fabric.h_switch)
              info a b
        | None -> false
      in
      match Endtoend.check ~bytes_equal expectation switch_trace with
      | Ok () -> ()
      | Error detail ->
          let hash_consulted =
            List.exists
              (function
                | Some (_, (_, info)) -> info.Interp.ri_hash_calls > 0
                | None -> false)
              judged
          in
          if hash_consulted then
            (* Every hop matched the model up to taint, and at least one
               consulted a hash: the end-to-end path itself may legally
               differ from the Fixed-0 reference trace. *)
            Telemetry.incr tele "topo.nondet_admits"
          else if want_more () then begin
            match switch_trace.Fabric.t_disposition with
            | Fabric.Dead_hop k ->
                incr localized;
                Telemetry.incr tele "topo.localized";
                add
                  ~context:(Report.context ~goal:fl.fl_id ~hop:(sp "sw%d" k) ())
                  "fabric dead switch"
                  (sp "flow %s: %s" fl.fl_id detail)
            | Fabric.Budget_exhausted _ ->
                add
                  ~context:(Report.context ~goal:fl.fl_id ())
                  "fabric forwarding loop"
                  (sp "flow %s: %s" fl.fl_id detail)
            | _ ->
                add
                  ~context:(Report.context ~goal:fl.fl_id ())
                  "fabric delivery divergence"
                  (sp "flow %s: %s" fl.fl_id detail)
          end)

(* --- flow slices -----------------------------------------------------------

   Same decomposition discipline as the data campaign: contiguous slices
   of the deterministic flow list, each a pure function of (env, slice) —
   packet processing never mutates switch state — with the incident
   budget counted from the parent's post-setup base and the merge
   truncating the in-order concatenation. *)

type slice_result = {
  fc_incidents : Report.incident list;
  fc_flows : int;
  fc_delivered : int;
  fc_dropped : int;
  fc_hops : int;
  fc_localized : int;
}

let run_slice env ~base_incidents (_offset, slice_flows) =
  let tele = Telemetry.get () in
  let incidents = ref [] in
  let n_incidents = ref base_incidents in
  let flows = ref 0 in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let hops = ref 0 in
  let localized = ref 0 in
  let want_more () = !n_incidents < env.e_cfg.max_incidents in
  let add ?context ?repro kind detail =
    if want_more () then begin
      incr n_incidents;
      Telemetry.incr tele "campaign.incidents";
      incidents :=
        Report.incident ?context ?repro Report.Fabric ~kind ~detail
        :: !incidents
    end
  in
  List.iter
    (fun fl ->
      incr flows;
      test_flow env ~tele ~add ~want_more ~delivered ~dropped ~hops ~localized
        fl)
    slice_flows;
  { fc_incidents = List.rev !incidents;
    fc_flows = !flows;
    fc_delivered = !delivered;
    fc_dropped = !dropped;
    fc_hops = !hops;
    fc_localized = !localized }

module Json = Telemetry.Json

let serialize_slice r =
  Json.obj
    [ ("incidents", Json.arr (List.map Report.incident_ipc_to_json r.fc_incidents));
      ("flows", Json.int r.fc_flows);
      ("delivered", Json.int r.fc_delivered);
      ("dropped", Json.int r.fc_dropped);
      ("hops", Json.int r.fc_hops);
      ("localized", Json.int r.fc_localized) ]

let deserialize_slice payload =
  let ( let* ) = Result.bind in
  let* j = Jsonp.parse payload in
  let int name =
    match Option.bind (Jsonp.member name j) Jsonp.to_int with
    | Some n -> Ok n
    | None -> Error (sp "fabric slice payload: missing field %S" name)
  in
  let* fc_incidents =
    match Jsonp.member "incidents" j with
    | Some (Jsonp.Arr xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* i = Report.incident_of_ipc_json x in
            Ok (i :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "fabric slice payload: missing incidents"
  in
  let* fc_flows = int "flows" in
  let* fc_delivered = int "delivered" in
  let* fc_dropped = int "dropped" in
  let* fc_hops = int "hops" in
  let* fc_localized = int "localized" in
  Ok { fc_incidents; fc_flows; fc_delivered; fc_dropped; fc_hops; fc_localized }

let truncate n xs =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n xs

let run ?(jobs = 1) program cfg =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "topo.campaign" @@ fun () ->
  let start = Telemetry.Clock.now () in
  let topo = Topo.build ?spines:cfg.spines cfg.shape cfg.switches in
  let n = Topo.switches topo in
  let entries_for =
    Array.init n (fun s -> Routes.entries topo program ~switch:s)
  in
  let incidents = ref [] in
  let n_incidents = ref 0 in
  let add ?context ?repro kind detail =
    if !n_incidents < cfg.max_incidents then begin
      incr n_incidents;
      Telemetry.incr tele "campaign.incidents";
      incidents :=
        Report.incident ?context ?repro Report.Fabric ~kind ~detail
        :: !incidents
    end
  in
  let faults_for s =
    match List.assoc_opt s cfg.faults with Some fs -> fs | None -> []
  in
  let mk_stack s () =
    Stack.create ~faults:(faults_for s) ~hash_seed:(0x5EED + cfg.seed + s)
      ~evaluator:cfg.evaluator program
  in
  (* Setup runs once in the parent; forked slice workers inherit the
     programmed stacks and model states copy-on-write. *)
  let stacks =
    Array.init n (fun s ->
        let st = mk_stack s () in
        let status = Stack.push_p4info st in
        if not (Status.is_ok status) then
          add "p4info rejected"
            ~context:(Report.context ~hop:(sp "sw%d" s) ())
            (Format.asprintf "sw%d: Set P4Info failed: %a" s Status.pp status);
        install st entries_for.(s) (fun ~entry detail ->
            add "entry rejected during fabric setup"
              ~context:
                (Report.context ~table:entry.Entry.e_table ~hop:(sp "sw%d" s)
                   ())
              (sp "sw%d: %s" s detail));
        st)
  in
  (* The reference fabric runs over the intended entry sets regardless of
     what each switch accepted — a rejection is already an incident. *)
  let model_cfgs =
    Array.init n (fun s ->
        let state = State.create () in
        List.iter (fun e -> ignore (State.insert state e)) entries_for.(s);
        { Interp.program;
          state;
          hash_mode = Interp.Fixed 0;
          mirror_map = Workload.mirror_map entries_for.(s) })
  in
  let taint =
    (Switchv_analysis.Analysis.facts ~check_restrictions:false program)
      .Switchv_analysis.Analysis.f_taint
  in
  let oracles =
    Array.map (fun c -> Dataplane.create ~evaluator:cfg.evaluator c ~taint)
      model_cfgs
  in
  let env =
    { e_topo = topo;
      e_cfg = cfg;
      e_stacks = stacks;
      e_stack_nodes = Array.init n (fun s -> Fabric.stack_node s stacks.(s));
      e_model_nodes =
        Array.init n (fun s ->
            Fabric.model_node ~evaluator:cfg.evaluator s model_cfgs.(s));
      e_model_cfgs = model_cfgs;
      e_oracles = oracles;
      e_entries_for = entries_for;
      e_budget =
        (match cfg.budget with
        | Some b -> b
        | None -> Fabric.default_budget topo);
      e_mk_stack = mk_stack }
  in
  let all_flows = flows topo cfg in
  let shards = max 1 cfg.shards in
  let slices = Shard.partition ~shards all_flows in
  let base_incidents = !n_incidents in
  let slice_results =
    if jobs <= 1 || shards = 1 then
      Array.to_list (Array.map (run_slice env ~base_incidents) slices)
    else begin
      let task s = serialize_slice (run_slice env ~base_incidents slices.(s)) in
      let pool = Pool.run ~jobs ~shards task in
      List.filter_map
        (function
          | Pool.Done payload -> (
              match deserialize_slice payload with
              | Ok r -> Some r
              | Error e ->
                  Telemetry.incr tele "parallel.workers_failed";
                  Printf.eprintf
                    "switchv: dropping undecodable fabric slice: %s\n%!" e;
                  None)
          | Pool.Lost _ -> None)
        (Array.to_list pool.Pool.outcomes)
    end
  in
  let merged =
    truncate
      (cfg.max_incidents - base_incidents)
      (List.concat_map (fun r -> r.fc_incidents) slice_results)
  in
  n_incidents := base_incidents + List.length merged;
  incidents := List.rev_append merged !incidents;
  let sum f = List.fold_left (fun a r -> a + f r) 0 slice_results in
  let switch_coverage =
    List.init n (fun s ->
        let c =
          Coverage.of_registry ~prefix:(sp "topo.sw.%d." s) tele program
        in
        (s, c.Coverage.covered, c.Coverage.total))
  in
  let stats =
    { Report.fs_shape = Topo.shape_to_string cfg.shape;
      fs_switches = n;
      fs_links = Topo.link_count topo;
      fs_flows = sum (fun r -> r.fc_flows);
      fs_delivered = sum (fun r -> r.fc_delivered);
      fs_dropped = sum (fun r -> r.fc_dropped);
      fs_hops = sum (fun r -> r.fc_hops);
      fs_localized = sum (fun r -> r.fc_localized);
      fs_duration = Telemetry.Clock.duration ~since:start;
      fs_switch_coverage = switch_coverage }
  in
  (List.rev !incidents, stats)
