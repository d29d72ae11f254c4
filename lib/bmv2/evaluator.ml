module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Packet = Switchv_packet.Packet

type t = Interp.rt -> string -> unit

let interpreted = Interp.pipeline

let exec pipeline cfg ~std ~value bytes =
  let rt = Interp.fresh_rt cfg in
  Interp.write_field rt (Ast.std std) value;
  pipeline rt bytes;
  rt

let run_rt pipeline cfg ~ingress_port bytes =
  exec pipeline cfg ~std:"ingress_port" ~value:(Bitvec.of_int ~width:16 ingress_port)
    bytes

let run pipeline cfg ~ingress_port bytes =
  Interp.finish (run_rt pipeline cfg ~ingress_port bytes)

let run_info pipeline (cfg : Interp.config) ~ingress_port bytes =
  let rt = run_rt pipeline cfg ~ingress_port bytes in
  { Interp.ri_behavior = Interp.finish rt;
    ri_hash_calls = rt.Interp.hash_calls;
    ri_valid =
      List.filter_map
        (fun (h : Header.t) -> if Interp.is_valid rt h.name then Some h.name else None)
        cfg.program.p_headers }

let run_packet pipeline cfg ~ingress_port packet =
  run pipeline cfg ~ingress_port (Packet.to_bytes packet)

let run_packet_out pipeline cfg ~egress_port packet =
  match egress_port with
  | Some port ->
      { Interp.b_egress = Some port;
        b_punted = false;
        b_mirrors = [];
        b_packet = Packet.to_bytes packet;
        b_trace = [ ("<packet-out>", "direct") ] }
  | None ->
      Interp.finish
        (exec pipeline cfg ~std:"submit_to_ingress" ~value:(Bitvec.of_int ~width:1 1)
           (Packet.to_bytes packet))

let round_robin (cfg : Interp.config) run_round =
  let rounds = min 32 (Interp.hash_rounds cfg) in
  let rec go round acc =
    if round >= rounds then List.rev acc
    else begin
      let b = run_round { cfg with hash_mode = Fixed round } in
      go (round + 1) (if List.exists (Interp.behavior_equal b) acc then acc else b :: acc)
    end
  in
  go 0 []

let enumerate_behaviors pipeline cfg ~ingress_port bytes =
  round_robin cfg (fun cfg -> run pipeline cfg ~ingress_port bytes)

let enumerate_packet_out pipeline cfg ~egress_port packet =
  round_robin cfg (fun cfg -> run_packet_out pipeline cfg ~egress_port packet)
