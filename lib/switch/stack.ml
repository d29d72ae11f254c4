module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Validate = Switchv_p4runtime.Validate
module Interp = Switchv_bmv2.Interp
module Evaluator = Switchv_bmv2.Evaluator
module Compile = Switchv_bmv2.Compile
module Workload = Switchv_sai.Workload
module Telemetry = Switchv_telemetry.Telemetry

type t = {
  s_program : Ast.program;          (* the contract (what SwitchV validates against) *)
  asic_program : Ast.program;       (* the ASIC's actual behaviour (may be perturbed) *)
  s_info : P4info.t;
  s_faults : Fault.t list;
  server : State.t;
  asic : State.t;
  hash_seed : int;
  evaluator : Evaluator.t;          (* runs the ASIC data plane *)
  mutable p4info_ok : bool;
  mutable is_crashed : bool;
}

(* --- fault lookup helpers -------------------------------------------------- *)

let fault_kinds t = List.map (fun (f : Fault.t) -> f.kind) t.s_faults

let has t pred = List.exists pred (fault_kinds t)

(* Record that a seeded fault actually changed observable behaviour.
   Counted per catalogue id ("fault.PINS-042"), so campaigns can see which
   seeded bugs fired — and how often — independent of detection. *)
let fire t pred =
  List.iter
    (fun (f : Fault.t) ->
      if pred f.Fault.kind then Telemetry.incr (Telemetry.get ()) ("fault." ^ f.id))
    t.s_faults

(* --- data-plane program perturbations -------------------------------------- *)

let reverse_bytes_expr e width =
  (* Byte-swap a value: the Cerberus endianness bug. *)
  let nbytes = width / 8 in
  let byte i = Ast.E_slice (((i + 1) * 8) - 1, i * 8, e) in
  let rec build i acc = if i >= nbytes then acc else build (i + 1) (Ast.E_concat (acc, byte i)) in
  build 1 (byte 0)

let perturb_program faults program =
  List.fold_left
    (fun (p : Ast.program) (f : Fault.t) ->
      match f.Fault.kind with
      | Fault.Encap_reversed_dst ->
          let actions =
            List.map
              (fun (a : Ast.action) ->
                if String.equal a.a_name "set_gre_encap" then
                  { a with
                    a_body =
                      List.map
                        (function
                          | Ast.S_assign (fr, Ast.E_param "encap_dst")
                            when String.equal fr.fr_field "dst_addr" ->
                              Ast.S_assign
                                (fr, reverse_bytes_expr (Ast.E_param "encap_dst") 32)
                          | s -> s)
                        a.a_body }
                else a)
              p.p_actions
          in
          { p with p_actions = actions }
      | _ -> p)
    program faults

let create ?(faults = []) ?(hash_seed = 0x5EED) ?(evaluator = Compile.evaluator)
    program =
  { s_program = program;
    asic_program = perturb_program faults program;
    s_info = P4info.of_program program;
    s_faults = faults;
    server = State.create ();
    asic = State.create ();
    hash_seed;
    evaluator;
    p4info_ok = false;
    is_crashed = false }

let faults t = t.s_faults
let program t = t.s_program
let evaluator t = t.evaluator
let info t = t.s_info
let server_state t = t.server
let asic_state t = t.asic
let crashed t = t.is_crashed

let push_p4info t =
  if t.is_crashed then Status.make Status.Unavailable "switch is unresponsive"
  else if has t (function Fault.P4info_push_fails -> true | _ -> false) then begin
    fire t (function Fault.P4info_push_fails -> true | _ -> false);
    Status.make Status.Internal "failed to apply forwarding-pipeline config"
  end
  else begin
    t.p4info_ok <- true;
    Status.ok
  end

(* --- control plane ---------------------------------------------------------- *)

let unavailable = Status.make Status.Unavailable "switch is unresponsive"

(* Validation as the (possibly buggy) server performs it. *)
let server_validate t (e : Entry.t) =
  let skip_constraints =
    has t (function
      | Fault.Accept_constraint_violation tbl -> String.equal tbl e.e_table
      | _ -> false)
  in
  let accept_bad_weight =
    has t (function Fault.Accept_invalid_weight -> true | _ -> false)
  in
  let syntactic_result = Validate.syntactic t.s_info e in
  let syntactic_result =
    match syntactic_result with
    | Error s
      when accept_bad_weight
           && String.length s.Status.message >= 19
           && String.sub s.Status.message 0 19 = "non-positive weight" ->
        Ok ()
    | r -> r
  in
  match syntactic_result with
  | Error s -> Error s
  | Ok () ->
      if skip_constraints then Ok ()
      else begin
        match P4info.find_table t.s_info e.e_table with
        | None -> Ok ()
        | Some ti -> (
            match Validate.constraint_compliant ti e with
            | Ok true -> Ok ()
            | Ok false ->
                Error
                  (Status.makef Status.Invalid_argument
                     "entry violates @entry_restriction of table %s" ti.ti_name)
            | Error msg ->
                Error
                  (Status.makef Status.Invalid_argument
                     "entry restriction evaluation failed: %s" msg))
      end

let server_check_references t (e : Entry.t) =
  let skip =
    has t (function
      | Fault.Accept_dangling_reference tbl -> String.equal tbl e.e_table
      | _ -> false)
  in
  if skip then Ok ()
  else
    Validate.check_references t.s_info e ~exists:(fun ~table ~key value ->
        State.exists_value t.server ~table ~key value)

(* Capacity the server enforces: the guaranteed size, or an (incorrectly)
   smaller limit under a Resource_exhausted_early fault. *)
let capacity t table_name =
  match P4info.find_table t.s_info table_name with
  | None -> max_int
  | Some ti ->
      List.fold_left
        (fun cap k ->
          match k with
          | Fault.Resource_exhausted_early (tbl, limit) when String.equal tbl table_name ->
              min cap limit
          | _ -> cap)
        ti.ti_size (fault_kinds t)

(* Apply a server-accepted update to the ASIC, modulo sync-layer faults. *)
let sync_to_asic t (u : Request.update) =
  Telemetry.with_span (Telemetry.get ()) "switch.syncd.sync" @@ fun () ->
  let e = u.entry in
  let dropped =
    has t (function
      | Fault.Syncd_drops_table tbl -> String.equal tbl e.e_table
      | _ -> false)
  in
  if dropped then
    fire t (function
      | Fault.Syncd_drops_table tbl -> String.equal tbl e.e_table
      | _ -> false)
  else begin
    let e =
      if
        has t (function
          | Fault.Syncd_offsets_port_arg tbl -> String.equal tbl e.e_table
          | _ -> false)
      then begin
        fire t (function
          | Fault.Syncd_offsets_port_arg tbl -> String.equal tbl e.e_table
          | _ -> false);
        (* The ASIC receives port arguments off by one. *)
        let fix (ai : Entry.action_invocation) =
          if String.equal ai.ai_name "set_port_and_src_mac" then
            match ai.ai_args with
            | port :: rest ->
                { ai with ai_args = Bitvec.add port (Bitvec.of_int ~width:16 1) :: rest }
            | [] -> ai
          else ai
        in
        { e with
          e_action =
            (match e.e_action with
            | Entry.Single ai -> Entry.Single (fix ai)
            | Entry.Weighted ais -> Entry.Weighted (List.map (fun (ai, w) -> (fix ai, w)) ais)) }
      end
      else e
    in
    (* Buggy WCMP group handling: groups never make it to the ASIC, so
       packets resolving through them fall to the default (drop). *)
    let wcmp_lost =
      has t (function Fault.Wcmp_update_removes_member -> true | _ -> false)
      && (match e.e_action with Entry.Weighted _ -> true | Entry.Single _ -> false)
    in
    if wcmp_lost then
      fire t (function Fault.Wcmp_update_removes_member -> true | _ -> false)
    else
    match u.op with
    | Request.Insert -> ignore (State.insert t.asic e)
    | Request.Modify -> ignore (State.modify t.asic e)
    | Request.Delete -> ignore (State.delete t.asic e)
  end

let process_update t (u : Request.update) =
  let e = u.entry in
  match
    Telemetry.with_span (Telemetry.get ()) "switch.server.validate" (fun () ->
        server_validate t e)
  with
  | Error s -> s
  | Ok () -> (
      let spurious_reject =
        u.op = Request.Insert
        && has t (function
             | Fault.Reject_valid_insert tbl -> String.equal tbl e.e_table
             | _ -> false)
      in
      let reject_dup_wcmp =
        has t (function Fault.Reject_duplicate_wcmp_actions -> true | _ -> false)
        &&
        match e.e_action with
        | Entry.Weighted ais ->
            let names =
              List.map
                (fun ((ai : Entry.action_invocation), _) ->
                  Format.asprintf "%s(%s)" ai.ai_name
                    (String.concat "," (List.map Bitvec.to_hex_string ai.ai_args)))
                ais
            in
            List.length names <> List.length (List.sort_uniq String.compare names)
        | Entry.Single _ -> false
      in
      if spurious_reject then begin
        fire t (function
          | Fault.Reject_valid_insert tbl -> String.equal tbl e.e_table
          | _ -> false);
        Status.makef Status.Invalid_argument "internal: unsupported key format in table %s"
          e.e_table
      end
      else if reject_dup_wcmp then begin
        fire t (function Fault.Reject_duplicate_wcmp_actions -> true | _ -> false);
        Status.make Status.Invalid_argument "duplicate action in WCMP group"
      end
      else
        match u.op with
        | Request.Insert -> (
            match server_check_references t e with
            | Error s -> s
            | Ok () ->
                if State.count t.server e.e_table >= capacity t e.e_table then
                  Status.makef Status.Resource_exhausted "table %s is full" e.e_table
                else begin
                  match State.insert t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s ->
                      if
                        s.Status.code = Status.Already_exists
                        && has t (function
                             | Fault.Accept_duplicate_insert tbl ->
                                 String.equal tbl e.e_table
                             | _ -> false)
                      then begin
                        fire t (function
                          | Fault.Accept_duplicate_insert tbl ->
                              String.equal tbl e.e_table
                          | _ -> false);
                        Status.ok (* pretends to accept; keeps the original *)
                      end
                      else s
                end)
        | Request.Modify -> (
            match server_check_references t e with
            | Error s -> s
            | Ok () ->
                let keep_old =
                  has t (function
                    | Fault.Modify_keeps_old_args tbl -> String.equal tbl e.e_table
                    | _ -> false)
                in
                if keep_old then begin
                  fire t (function
                    | Fault.Modify_keeps_old_args tbl -> String.equal tbl e.e_table
                    | _ -> false);
                  if State.find t.server e <> None then Status.ok
                  else Status.makef Status.Not_found "no such entry in %s" e.e_table
                end
                else begin
                  match State.modify t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s -> s
                end)
        | Request.Delete -> (
            let leave =
              has t (function
                | Fault.Delete_leaves_entry tbl -> String.equal tbl e.e_table
                | _ -> false)
            in
            let spurious_vrf_refuse =
              String.equal e.e_table "vrf_table"
              && has t (function
                   | Fault.Reject_vrf_delete_with_any_routes -> true
                   | _ -> false)
              && (State.count t.server "ipv4_table" > 0
                 || State.count t.server "ipv6_table" > 0)
            in
            match State.find t.server e with
            | None -> Status.makef Status.Not_found "no such entry in %s" e.e_table
            | Some installed ->
                if spurious_vrf_refuse then begin
                  fire t (function
                    | Fault.Reject_vrf_delete_with_any_routes -> true
                    | _ -> false);
                  Status.make Status.Failed_precondition
                    "cannot delete VRF while routes exist"
                end
                else if State.is_referenced t.server t.s_info installed then
                  Status.make Status.Failed_precondition
                    "entry is referenced by other entries"
                else if leave then begin
                  fire t (function
                    | Fault.Delete_leaves_entry tbl -> String.equal tbl e.e_table
                    | _ -> false);
                  Status.ok
                end
                else begin
                  match State.delete t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s -> s
                end))

let write t (req : Request.write_request) =
  Telemetry.with_span (Telemetry.get ()) "switch.write"
    ~attrs:[ ("updates", string_of_int (List.length req.updates)) ]
  @@ fun () ->
  if t.is_crashed then
    { Request.statuses = List.map (fun _ -> unavailable) req.updates }
  else if not t.p4info_ok then
    { Request.statuses =
        List.map
          (fun _ -> Status.make Status.Failed_precondition "no forwarding pipeline config")
          req.updates }
  else begin
    (* Crash fault: too many deletes in one batch wedges the switch. *)
    let n_deletes =
      List.length (List.filter (fun (u : Request.update) -> u.op = Request.Delete) req.updates)
    in
    let crash_limit =
      List.fold_left
        (fun acc k ->
          match k with Fault.Crash_on_delete_sequence n -> min acc n | _ -> acc)
        max_int (fault_kinds t)
    in
    if n_deletes >= crash_limit then begin
      fire t (function Fault.Crash_on_delete_sequence _ -> true | _ -> false);
      t.is_crashed <- true;
      { Request.statuses = List.map (fun _ -> unavailable) req.updates }
    end
    else begin
      let fail_batch_on_missing_delete =
        has t (function Fault.Delete_nonexistent_fails_batch -> true | _ -> false)
        && List.exists
             (fun (u : Request.update) ->
               u.op = Request.Delete && State.find t.server u.entry = None)
             req.updates
      in
      if fail_batch_on_missing_delete then begin
        fire t (function Fault.Delete_nonexistent_fails_batch -> true | _ -> false);
        { Request.statuses =
            List.map
              (fun _ ->
                Status.make Status.Unknown "batch aborted: delete of non-existent entry")
              req.updates }
      end
      else
        { Request.statuses = List.map (process_update t) req.updates }
    end
  end

let read t =
  if t.is_crashed then { Request.entries = [] }
  else begin
    let entries = State.all t.server in
    let kept =
      List.filter
        (fun (e : Entry.t) ->
          not
            (has t (function
               | Fault.Read_drops_table tbl -> String.equal tbl e.e_table
               | _ -> false)))
        entries
    in
    if List.length kept <> List.length entries then
      fire t (function Fault.Read_drops_table _ -> true | _ -> false);
    let entries =
      if kept <> [] && has t (function Fault.Read_zeroes_priority -> true | _ -> false)
      then begin
        fire t (function Fault.Read_zeroes_priority -> true | _ -> false);
        List.map (fun (e : Entry.t) -> { e with e_priority = 0 }) kept
      end
      else kept
    in
    { Request.entries }
  end

(* --- data plane -------------------------------------------------------------- *)

(* Built per packet: the mirror map reads only the mirror-session table,
   so it costs what that table holds, not what the whole ASIC holds. *)
let interp_config t =
  { Interp.program = t.asic_program;
    state = t.asic;
    hash_mode = Interp.Seeded t.hash_seed;
    mirror_map = Workload.mirror_map (State.entries_of t.asic "mirror_session_table") }

(* Byte-level packet inspection for data-plane faults (models with a plain
   ethernet + ipv4 layout; offsets per the standard headers). *)
let ether_type bytes =
  if String.length bytes >= 14 then
    Some ((Char.code bytes.[12] lsl 8) lor Char.code bytes.[13])
  else None

let ipv4_field bytes offset len =
  match ether_type bytes with
  | Some 0x0800 when String.length bytes >= 14 + offset + len ->
      let v = ref 0 in
      for i = 0 to len - 1 do
        v := (!v lsl 8) lor Char.code bytes.[14 + offset + i]
      done;
      Some !v
  | _ -> None

let perturb_behavior t ~ingress_port in_bytes (b : Interp.behavior) =
  List.fold_left
    (fun (b : Interp.behavior) (f : Fault.t) ->
      (* Each arm returns [Some b'] when the fault's trigger condition held
         (a firing, counted by catalogue id) and [None] when it did not. *)
      let fired =
        match f.Fault.kind with
        | Fault.Drop_on_port p when ingress_port = p -> Some { b with b_egress = None }
        | Fault.Ttl_trap_always -> (
            match ipv4_field in_bytes 8 1 with
            | Some ttl when ttl <= 1 -> Some { b with b_egress = None; b_punted = true }
            | _ -> None)
        | Fault.Ttl_trap_threshold n -> (
            (* Trap threshold misprogrammed: the chip punts IPv4 arrivals
               with TTL <= n. Invisible to edge traffic injected above the
               threshold; bites once a path has decremented into it. *)
            match ipv4_field in_bytes 8 1 with
            | Some ttl when ttl <= n -> Some { b with b_egress = None; b_punted = true }
            | _ -> None)
        | Fault.Drop_dst_ip ip -> (
            (* Drops the whole /24 the address identifies (a route's worth of
               traffic), matching how such hardware bugs manifest. *)
            match ipv4_field in_bytes 16 4 with
            | Some dst
              when Bitvec.equal
                     (Bitvec.shift_right (Bitvec.of_int ~width:32 dst) 8)
                     (Bitvec.shift_right ip 8) ->
                Some { b with b_egress = None }
            | _ -> None)
        | Fault.Punt_ether_type et -> (
            match ether_type in_bytes with
            | Some t' when t' = et -> Some { b with b_punted = true }
            | _ -> None)
        | Fault.Dscp_remark_zero d -> (
            (* Re-marks any DSCP >= d to 0 on forwarded packets. *)
            match (b.b_egress, ipv4_field b.b_packet 1 1) with
            | Some _, Some tos when d > 0 && tos lsr 2 >= d ->
                let bytes = Bytes.of_string b.b_packet in
                Bytes.set bytes 15 (Char.chr (tos land 0x03));
                Some { b with b_packet = Bytes.to_string bytes }
            | _ -> None)
        | Fault.Mirror_ignored when b.b_mirrors <> [] -> Some { b with b_mirrors = [] }
        | Fault.Punt_lost when b.b_punted -> Some { b with b_punted = false }
        | Fault.Forward_wrong_port_for_port p -> (
            match b.b_egress with
            | Some p' when p' = p -> Some { b with b_egress = Some (p + 1) }
            | _ -> None)
        | _ -> None
      in
      match fired with
      | Some b' ->
          Telemetry.incr (Telemetry.get ()) ("fault." ^ f.id);
          b'
      | None -> b)
    b t.s_faults

let drop_behavior bytes =
  { Interp.b_egress = None;
    b_punted = false;
    b_mirrors = [];
    b_packet = bytes;
    b_trace = [ ("<fault>", "dropped") ] }

let crashed_behavior bytes =
  { Interp.b_egress = None;
    b_punted = false;
    b_mirrors = [];
    b_packet = bytes;
    b_trace = [ ("<crashed>", "dropped") ] }

let inject t ~ingress_port bytes =
  Telemetry.with_span (Telemetry.get ()) "switch.inject" @@ fun () ->
  Telemetry.incr (Telemetry.get ()) "switch.packets_injected";
  (* A crashed stack is link-dead: everything arriving at it vanishes.
     Matters for fabrics, where a crashed mid-path switch must read as a
     drop at the dead hop rather than as a live pipeline. *)
  if t.is_crashed then crashed_behavior bytes
  else
    match
      Evaluator.run t.evaluator (interp_config t) ~ingress_port bytes
    with
    | b -> perturb_behavior t ~ingress_port bytes b
    | exception Interp.Parse_failure _ -> drop_behavior bytes

let packet_out t (po : Request.packet_out) =
  Telemetry.with_span (Telemetry.get ()) "switch.packet_out" @@ fun () ->
  if t.is_crashed then
    crashed_behavior (Switchv_packet.Packet.to_bytes po.po_payload)
  else
  let submit_dropped =
    has t (function Fault.Submit_to_ingress_dropped -> true | _ -> false)
  in
  let punt_back =
    has t (function Fault.Packet_out_punted_back -> true | _ -> false)
  in
  match po.po_egress_port with
  | Some _ ->
      let b =
        Evaluator.run_packet_out t.evaluator (interp_config t)
          ~egress_port:po.po_egress_port po.po_payload
      in
      if punt_back then begin
        fire t (function Fault.Packet_out_punted_back -> true | _ -> false);
        { b with b_punted = true }
      end
      else b
  | None ->
      if submit_dropped then begin
        fire t (function Fault.Submit_to_ingress_dropped -> true | _ -> false);
        drop_behavior (Switchv_packet.Packet.to_bytes po.po_payload)
      end
      else begin
        let b =
          Evaluator.run_packet_out t.evaluator (interp_config t)
            ~egress_port:None po.po_payload
        in
        let bytes = Switchv_packet.Packet.to_bytes po.po_payload in
        perturb_behavior t ~ingress_port:0 bytes b
      end
