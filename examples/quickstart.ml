(* Quickstart: the paper's running example end to end.

   Builds the Figure 2 routing pipeline as a P4 model, checks the Figure 3
   table entries against the control-plane contract (restrictions,
   references), runs a packet through the reference interpreter, and uses
   p4-symbolic to generate a test packet hitting a chosen entry — the
   example worked through in §5.

   Run with: dune exec examples/quickstart.exe *)

module Figure2 = Switchv_sai.Figure2
module Pretty = Switchv_p4ir.Pretty
module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Validate = Switchv_p4runtime.Validate
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Interp = Switchv_bmv2.Interp
module Evaluator = Switchv_bmv2.Evaluator
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Packet = Switchv_packet.Packet
module Bitvec = Switchv_bitvec.Bitvec

let section title = Printf.printf "\n=== %s ===\n%!" title

let () =
  let program = Figure2.program in
  let info = Figure2.info in

  section "The P4 model (Figure 2) as living documentation";
  print_endline (Pretty.program_to_string program);

  section "Control-plane validation of the Figure 3 entries";
  let state = State.create () in
  let check label entry =
    let verdict =
      match Validate.check_entry info entry with
      | Error s -> Format.asprintf "INVALID (%a)" Status.pp s
      | Ok () -> (
          match
            Validate.check_references info entry ~exists:(fun ~table ~key value ->
                State.exists_value state ~table ~key value)
          with
          | Error s -> Format.asprintf "INVALID (%a)" Status.pp s
          | Ok () ->
              ignore (State.insert state entry);
              "valid")
    in
    Format.printf "%s: %-10s %a@." label verdict Entry.pp entry
  in
  check "v1" Figure2.v1;
  check "v2" Figure2.v2;
  check "v3" Figure2.v3;
  check "i1" Figure2.i1;
  check "i2" Figure2.i2;
  check "i3" Figure2.i3;
  check "i4" Figure2.i4;
  check "i5" Figure2.i5;

  section "Data-plane execution of a concrete packet";
  (* Install an ACL entry assigning VRF 1, so the routes are reachable. *)
  let acl =
    Entry.make ~table:"acl_pre_ingress_table" ~priority:1
      ~matches:
        [ { fm_field = "dst_ip";
            fm_value =
              Entry.M_ternary
                (Switchv_bitvec.Ternary.of_prefix
                   (Switchv_bitvec.Prefix.of_ipv4_string "10.0.0.0/8")) } ]
      (Entry.Single { ai_name = "set_vrf"; ai_args = [ Bitvec.of_int ~width:16 1 ] })
  in
  ignore (State.insert state acl);
  let cfg =
    { Interp.program; state; hash_mode = Interp.Seeded 1; mirror_map = [] }
  in
  let packet = Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"10.0.0.7" () in
  let b = Evaluator.run_packet Evaluator.interpreted cfg ~ingress_port:1 packet in
  Format.printf "packet to 10.0.0.7: %a@." Interp.pp_behavior b;
  Format.printf "  (i5 matches 10.0.*.* with prefix /16, i1 matches /8 — the longer prefix wins)@.";
  List.iter (fun (t, a) -> Format.printf "  %s -> %s@." t a) b.b_trace;

  section "p4-symbolic: generate a packet that hits entry i1";
  let entries = State.all state in
  let encoding = Symexec.encode program entries in
  let target = Entry.match_key Figure2.i1 in
  let goals =
    List.filter
      (fun (g : Packetgen.goal) ->
        g.goal_id = Printf.sprintf "entry:ipv4_table:%s" target)
      (Packetgen.entry_coverage_goals encoding)
  in
  let result = Packetgen.generate encoding goals in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      match tp.tp_bytes with
      | Some bytes ->
          Format.printf "goal %s: generated %d-byte packet on port %d@." tp.tp_goal
            (String.length bytes) tp.tp_port;
          let b = Evaluator.run Evaluator.interpreted cfg ~ingress_port:tp.tp_port bytes in
          Format.printf "  interpreter confirms: %a@." Interp.pp_behavior b;
          List.iter (fun (t, a) -> Format.printf "  %s -> %s@." t a) b.b_trace
      | None -> Format.printf "goal %s: UNSATISFIABLE@." tp.tp_goal)
    result.packets;

  section "Done";
  print_endline "See examples/nightly_validation.ml for the full SwitchV loop."
