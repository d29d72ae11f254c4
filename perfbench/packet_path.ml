(* packet_path: the data-plane hot path. The paper-scale Inst1 entry set
   (798 entries) is installed through [Stack.write] on a fault-free stack,
   then a seeded packet mix is replayed: every packet goes through
   [Stack.inject] and is judged by the set-valued [Dataplane] oracle. No
   SMT or fuzzing work happens here. *)

open Common
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Dataplane = Switchv_oracle.Dataplane
module Analysis = Switchv_analysis.Analysis
module Workload = Switchv_sai.Workload
module Middleblock = Switchv_sai.Middleblock
module Packet = Switchv_packet.Packet
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Data_campaign = Switchv_core.Data_campaign
module Term = Switchv_smt.Term

let program = Middleblock.program
let mix_size = 2000
let setup_reps = 3

(* Per-packet latencies are kept for the first [packet_samples] packets
   (125 passes, about a 40-second window), per-pass figures for the first
   [pass_samples] passes. *)
let packet_samples = 250_000
let pass_samples = 10_000

(* Frames up to this size count as small, from [large_min] on as large. *)
let small_max = 256
let large_min = 1024

(* --- the packet mix ---------------------------------------------------- *)

let action_name (e : Entry.t) =
  match e.e_action with Entry.Single a -> a.ai_name | Entry.Weighted _ -> "weighted"

(* A random address inside [value/len] (host bits drawn from [rng]). *)
let within rng value ~host_mask =
  Bitvec.logor value (Bitvec.logand (Rng.bitvec rng (Bitvec.width value)) host_mask)

let host_mask_of_prefix p =
  let w = Prefix.width p and l = Prefix.len p in
  if l = 0 then Bitvec.ones w else Bitvec.lognot (Bitvec.shift_left (Bitvec.ones w) (w - l))

let ipv4_string v =
  let n = Bitvec.to_int_exn v in
  Printf.sprintf "%d.%d.%d.%d" ((n lsr 24) land 255) ((n lsr 16) land 255)
    ((n lsr 8) land 255) (n land 255)

let lpm_routes entries table field =
  List.filter_map
    (fun (e : Entry.t) ->
      if e.e_table <> table then None
      else
        match Entry.find_match e field with
        | Some (Entry.M_lpm p) -> Some (p, action_name e)
        | _ -> None)
    entries

(* The dst_ip ternaries of the ingress ACL entries. *)
let acl_targets entries =
  List.filter_map
    (fun (e : Entry.t) ->
      if e.e_table <> "acl_ingress_table" then None
      else
        match Entry.find_match e "dst_ip" with
        | Some (Entry.M_ternary t) -> Some t
        | _ -> None)
    entries

type kind =
  | V4_route | V4_wcmp | V4_miss | V6_route | V6_wcmp | V6_miss
  | Acl_hit | Ttl_expiring | Not_admitted | Non_ip

let kind_name = function
  | V4_route -> "v4_route" | V4_wcmp -> "v4_wcmp" | V4_miss -> "v4_miss"
  | V6_route -> "v6_route" | V6_wcmp -> "v6_wcmp" | V6_miss -> "v6_miss" | Acl_hit -> "acl_hit" | Ttl_expiring -> "ttl_expiring"
  | Not_admitted -> "not_admitted" | Non_ip -> "non_ip"

(* The composition of the traffic SwitchV itself judges: how many of the
   test packets the data campaign's goal pipeline generates for the Inst1
   set fall into each kind, summed over Inst1 seeds 1, 2 and 3 (2413
   packets; [census] recomputes it). The generated packets miss no IPv4
   route: misses are IPv6 only. *)
let kinds =
  [ (V4_route, 1219); (V4_wcmp, 247); (V4_miss, 0); (V6_route, 524); (V6_wcmp, 99);
    (V6_miss, 3); (Acl_hit, 99); (Ttl_expiring, 105); (Not_admitted, 66); (Non_ip, 51) ]

(* Frame lengths follow the simple IMIX of traffic generators: 64, 576 and
   1500 bytes in the ratio 7:4:1 (lengths as the switch sees them, without
   the FCS). The generated test packets are header-only, so they give no
   size distribution. Within a kind, the [i]-th of [count] packets takes
   the IMIX slot at its position, so each kind holds the ratio as exactly
   as its count allows. *)
let imix_length i count =
  let slot = (((2 * i) + 1) * 12) / (2 * count) in
  if slot < 7 then 64 else if slot < 11 then 576 else 1500

type probe = { kind : kind; port : int; bytes : string }

(* [mix_size] packets from [seed] in the census composition: each kind
   contributes its share of [mix_size], with IMIX frame lengths, in a
   seeded order. The seed picks addresses, payloads and ports and the
   order. *)
let mix seed entries =
  let rng = Rng.create (0x9e37 + seed) in
  let v4 = lpm_routes entries "ipv4_table" "ipv4_dst" in
  let v6 = lpm_routes entries "ipv6_table" "ipv6_dst" in
  let pick routes wcmp =
    let pool = List.filter (fun (_, a) -> (a = "set_wcmp_group_id") = wcmp) routes in
    fst (Rng.choose rng (if pool = [] then routes else pool))
  in
  let in_prefix p = within rng (Prefix.value p) ~host_mask:(host_mask_of_prefix p) in
  let in_ternary t = within rng (Ternary.value t) ~host_mask:(Bitvec.lognot (Ternary.mask t)) in
  let acls = acl_targets entries in
  let admitted_mac () = Printf.sprintf "02:00:00:00:00:%02x" (Rng.int rng 8) in
  let payload n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
  let frame ~len ~mac ~ether_type l3 ~header_bytes =
    Packet.to_bytes
      { Packet.headers =
          [ Packet.ethernet_frame ~dst:mac ~ether_type (); l3;
            Packet.udp_header ~src_port:(1024 + Rng.int rng 60000) ~dst_port:443 () ];
        payload = payload (len - header_bytes) }
  in
  let v4_packet ~len ?(ttl = 64) ?(mac = admitted_mac ()) dst =
    frame ~len ~mac ~ether_type:0x0800 ~header_bytes:42
      (Packet.ipv4_header ~ttl ~src:"192.0.2.1" ~dst:(ipv4_string dst) ())
  in
  let v6_packet ~len dst =
    frame ~len ~mac:(admitted_mac ()) ~ether_type:0x86DD ~header_bytes:62
      (Packet.ipv6_header ~src:(Packet.ipv6_of_string "2001:db8:ffff::1") ~dst ())
  in
  let v4_miss () =
    (* Outside every route: 10.200/9-ish space above the /24s, or an
       unrouted /8 below the pre-ingress ACL's VRF steering range. *)
    let n =
      if Rng.bool rng then (10 lsl 24) lor ((200 + Rng.int rng 50) lsl 16) lor Rng.int rng 65536
      else ((60 + Rng.int rng 30) lsl 24) lor Rng.int rng 0x1000000
    in
    Bitvec.of_int ~width:32 n
  in
  let v6_miss () =
    Bitvec.logor
      (Bitvec.shift_left (Bitvec.of_hex_string ~width:128 "20010db8") 96)
      (Bitvec.logor
         (Bitvec.shift_left (Bitvec.of_int ~width:128 (1000 + Rng.int rng 60000)) 80)
         (Bitvec.of_int ~width:128 (Rng.int rng 0x3fffffff)))
  in
  let packet kind ~len =
    match kind with
    | V4_route -> v4_packet ~len (in_prefix (pick v4 false))
    | V4_wcmp -> v4_packet ~len (in_prefix (pick v4 true))
    | V4_miss -> v4_packet ~len (v4_miss ())
    | V6_route -> v6_packet ~len (in_prefix (pick v6 false))
    | V6_wcmp -> v6_packet ~len (in_prefix (pick v6 true))
    | V6_miss -> v6_packet ~len (v6_miss ())
    | Acl_hit -> v4_packet ~len (in_ternary (Rng.choose rng acls))
    | Ttl_expiring -> v4_packet ~len ~ttl:(Rng.int rng 2) (in_prefix (pick v4 false))
    | Not_admitted -> v4_packet ~len ~mac:"02:00:00:00:01:00" (in_prefix (pick v4 false))
    | Non_ip ->
        (* ARP, LLDP or LACP, the non-IP ether types the census saw most. *)
        let ether_type = Rng.choose rng [ 0x0806; 0x88CC; 0x8809 ] in
        Packet.to_bytes
          { Packet.headers = [ Packet.ethernet_frame ~dst:(admitted_mac ()) ~ether_type () ];
            payload = payload (len - 14) }
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 kinds in
  List.concat_map
    (fun (kind, n) ->
      let count = int_of_float (Float.round (float_of_int (mix_size * n) /. float_of_int total)) in
      List.init count (fun i ->
          { kind; port = 1 + Rng.int rng 4; bytes = packet kind ~len:(imix_length i count) }))
    kinds
  |> Rng.shuffle rng |> Array.of_list

(* --- set-up ------------------------------------------------------------- *)

type env = {
  stack : Stack.t;
  oracle : Dataplane.t;
  packets : probe array;
  entries : Entry.t list;
  escalating : bool array;  (** per packet: its verdict escalates in the oracle *)
}

let oracle_for entries =
  let state = State.create () in
  List.iter (fun e -> ignore (State.insert state e)) entries;
  let cfg =
    { Interp.program; state; hash_mode = Interp.Fixed 0;
      mirror_map = Workload.mirror_map entries }
  in
  let facts = Analysis.facts ~check_restrictions:false program in
  Dataplane.create cfg ~taint:facts.f_taint

type verdict = Admitted | Diverged | Raised

let inject env p = try Some (Stack.inject env.stack ~ingress_port:p.port p.bytes) with _ -> None

let judge_switch env p switch =
  match Dataplane.judge env.oracle ~ingress_port:p.port ~bytes:p.bytes ~switch with
  | Dataplane.Admitted -> Admitted
  | Dataplane.Diverged _ -> Diverged
  | exception _ -> Raised

let judge env p = match inject env p with Some switch -> judge_switch env p switch | None -> Raised

(* Install dependency-ordered entries the way the data campaign does:
   one Write per run of same-table entries, so no batch carries an
   internal reference. Returns the number of rejected updates. *)
let install stack entries =
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
  List.fold_left
    (fun rejected batch ->
      let resp = Stack.write stack { Request.updates = List.map Request.insert batch } in
      rejected + List.length (List.filter (fun s -> not (Status.is_ok s)) resp.statuses))
    0 batches

let provision ?(faults = []) entries =
  let stack = Stack.create ~faults program in
  if not (Status.is_ok (Stack.push_p4info stack)) then
    failwith "perfbench: middleblock P4Info rejected";
  let rejected, install_s = timed (fun () -> install stack entries) in
  if rejected > 0 then failwith "perfbench: the fault-free stack rejected an Inst1 entry";
  (stack, install_s)

(* Whether the oracle's verdict on [p] escalated to the full behaviour
   enumeration. *)
let escalated env p =
  let tele = Telemetry.get () in
  let before = Telemetry.counter tele "oracle.dataplane_escalations" in
  ignore (judge env p);
  Telemetry.counter tele "oracle.dataplane_escalations" > before

(* Model and entries, stack creation, entry install, oracle, packet mix,
   and one warm-up pass that stages the evaluator, builds the table
   indexes and notes which verdicts escalate. *)
let setup seed =
  let entries = Workload.generate ~seed program Workload.inst1 in
  let stack, _ = provision entries in
  let env =
    { stack; oracle = oracle_for entries; packets = mix seed entries; entries; escalating = [||] }
  in
  { env with escalating = Array.map (escalated env) env.packets }

(* Gate: a data-plane catalogue fault (drop-on-port) must diverge. *)
let fault_detected env =
  let fault =
    pins_fault program env.entries (fun f ->
        match f.kind with Fault.Drop_on_port _ -> true | _ -> false)
  in
  let stack, _ = provision ~faults:[ fault ] env.entries in
  let faulty = { env with stack } in
  (fault.id, Array.exists (fun p -> judge faulty p = Diverged) env.packets)

(* Gate: the inputs of the next seed are admitted too. *)
let next_seed_clean seed =
  let env = setup (seed + 1) in
  Array.for_all (fun p -> judge env p = Admitted) env.packets

(* --- census of the traffic SwitchV judges -------------------------------- *)

(* The kind of a packet, read off the model's own execution: the tables in
   its trace, and the IPv4 TTL byte. An ACL hit takes precedence over
   admission and TTL, because the generated packet that covers an ACL
   entry needs neither. *)
let classify model_cfg ~port bytes =
  let trace = (Compile.run model_cfg ~ingress_port:port bytes).Interp.b_trace in
  let action table =
    match List.assoc_opt table trace with
    | Some a when not (String.starts_with ~prefix:"<default>" a) -> Some a
    | _ -> None
  in
  let ether_type =
    if String.length bytes < 14 then 0 else (Char.code bytes.[12] lsl 8) lor Char.code bytes.[13]
  in
  let route table ~route ~wcmp ~miss =
    match action table with
    | Some "set_wcmp_group_id" -> wcmp
    | Some _ -> route
    | None -> miss
  in
  if ether_type <> 0x0800 && ether_type <> 0x86DD then Non_ip
  else if action "acl_ingress_table" <> None then Acl_hit
  else if action "l3_admit_table" = None then Not_admitted
  else if ether_type = 0x0800 then
    if String.length bytes > 22 && Char.code bytes.[22] <= 1 then Ttl_expiring
    else route "ipv4_table" ~route:V4_route ~wcmp:V4_wcmp ~miss:V4_miss
  else route "ipv6_table" ~route:V6_route ~wcmp:V6_wcmp ~miss:V6_miss

(* Print how the test packets SwitchV generates for the Inst1 set of
   [seed] fall into the mix's kinds. The goals are the data campaign's
   under the harness's default config — entry and branch coverage plus the
   exploratory goals, statically pruned and taint-pruned — except that no
   branch goal is skipped as already covered by a control phase. Every
   packet is then injected into a fault-free stack and judged, to count
   the verdicts that escalate. Takes about a minute. *)
let census seed =
  let entries = Workload.generate ~seed program Workload.inst1 in
  let enc = Symexec.encode program entries in
  let prefer = Term.not_ enc.enc_dropped in
  let facts = Analysis.facts ~check_restrictions:false program in
  let goals =
    Packetgen.entry_coverage_goals ~prefer enc
    @ Packetgen.branch_coverage_goals ~prefer enc
    @ Data_campaign.exploratory_goals enc
    |> Packetgen.prune_goals facts
    |> Packetgen.prune_tainted_goals facts.f_taint
  in
  let generated = (Packetgen.generate enc goals).packets in
  let env =
    { stack = fst (provision entries); oracle = oracle_for entries; packets = [||]; entries;
      escalating = [||] }
  in
  let model_cfg =
    let state = State.create () in
    List.iter (fun e -> ignore (State.insert state e)) entries;
    { Interp.program; state; hash_mode = Interp.Fixed 0; mirror_map = Workload.mirror_map entries }
  in
  (* Per kind: packets, and those whose verdict escalated. *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      Option.iter
        (fun bytes ->
          let kind = classify model_cfg ~port:tp.tp_port bytes in
          let esc = escalated env { kind; port = tp.tp_port; bytes } in
          let n, e = Option.value ~default:(0, 0) (Hashtbl.find_opt counts kind) in
          Hashtbl.replace counts kind (n + 1, if esc then e + 1 else e))
        tp.tp_bytes)
    generated;
  Printf.printf "census seed=%d goals=%d packets=%d\n" seed (List.length goals)
    (Hashtbl.fold (fun _ (n, _) a -> a + n) counts 0);
  List.iter
    (fun (kind, _) ->
      let n, e = Option.value ~default:(0, 0) (Hashtbl.find_opt counts kind) in
      Printf.printf "  %-13s %4d  escalated %d\n" (kind_name kind) n e)
    kinds

(* --- measurement -------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable diverged : int; mutable raised : int }

let count tally = function
  | Admitted -> tally.attempted <- tally.attempted + 1
  | Diverged ->
      tally.attempted <- tally.attempted + 1;
      tally.diverged <- tally.diverged + 1
  | Raised ->
      tally.attempted <- tally.attempted + 1;
      tally.raised <- tally.raised + 1

(* Per-packet latencies: all packets, split by whether the verdict
   escalated, and the small and large frames. *)
type latencies = {
  all : Samples.t;
  common : Samples.t;
  escalated : Samples.t;
  small : Samples.t;
  large : Samples.t;
}

(* One untraced pass: per-packet wall clock of inject + judge, kept in
   [dts] until the pass's host factor is known. *)
let pass env tally dts =
  let t_pass = now () in
  Array.iteri
    (fun i p ->
      let t0 = now () in
      let verdict = judge env p in
      dts.(i) <- now () -. t0;
      count tally verdict)
    env.packets;
  now () -. t_pass

(* A pass's per-packet times, host-normalised by [f], into [lat]. *)
let record env lat dts f =
  Array.iteri
    (fun i p ->
      let dt = dts.(i) *. f in
      Samples.add lat.all dt;
      Samples.add (if env.escalating.(i) then lat.escalated else lat.common) dt;
      let len = String.length p.bytes in
      if len <= small_max then Samples.add lat.small dt
      else if len >= large_min then Samples.add lat.large dt)
    env.packets

type spans = {
  mutable inject : float;
  mutable judge_ : float;
  mutable eval : float;
  mutable e2e : float;
  mutable pass : float;  (** whole traced passes, [eval] included *)
  mutable packets : int;
}

(* One traced pass: spans around [Stack.inject] and [Dataplane.judge], and
   a separately timed [Compile.run] on the ASIC's own state — the
   evaluator's share of inject, outside the packet's end-to-end window. *)
let traced_pass env tally spans asic_cfg =
  let t_pass = now () in
  Array.iter
    (fun p ->
      let t0 = now () in
      let switch = inject env p in
      let t1 = now () in
      let verdict = match switch with Some s -> judge_switch env p s | None -> Raised in
      let t2 = now () in
      ignore (try Some (Compile.run asic_cfg ~ingress_port:p.port p.bytes) with _ -> None);
      let t3 = now () in
      count tally verdict;
      spans.inject <- spans.inject +. (t1 -. t0);
      spans.judge_ <- spans.judge_ +. (t2 -. t1);
      spans.e2e <- spans.e2e +. (t2 -. t0);
      spans.eval <- spans.eval +. (t3 -. t2);
      spans.packets <- spans.packets + 1)
    env.packets;
  spans.pass <- spans.pass +. (now () -. t_pass)

let run ~seed ~seconds ~trace =
  let host = Host.create () in
  (* Each set-up drops the one before, so memory holds one environment. *)
  let last = ref None in
  let setup_times =
    Array.init setup_reps (fun _ ->
        last := None;
        let env, dt = timed (fun () -> setup seed) in
        last := Some env;
        dt *. Host.factor host)
  in
  let env = Option.get !last in
  let install_times = Samples.create pass_samples in
  let tally = { attempted = 0; diverged = 0; raised = 0 } in
  let lat =
    { all = Samples.create packet_samples; common = Samples.create packet_samples;
      escalated = Samples.create packet_samples; small = Samples.create packet_samples;
      large = Samples.create packet_samples }
  in
  let pass_times = Samples.create pass_samples in
  let passes = ref 0 and pass_total = ref 0. in
  let dts = Array.make (Array.length env.packets) 0. and raw_e2e = ref 0. in
  let spans = { inject = 0.; judge_ = 0.; eval = 0.; e2e = 0.; pass = 0.; packets = 0 } in
  let traced_passes = ref 0 in
  let asic = Stack.asic_state env.stack in
  let asic_cfg =
    { Interp.program = Stack.program env.stack; state = asic; hash_mode = Interp.Fixed 0;
      mirror_map = Workload.mirror_map (State.all asic) }
  in
  let minor = ref 0. and majors = ref 0 in
  let traced_totals = totals () in
  (* A traced run alternates untraced and traced passes and needs one of
     each. *)
  let t0 = now () in
  while now () -. t0 < seconds || (trace && !traced_passes < 2) do
    (* Every pass starts from a full collection, so it collects none of the
       garbage that set-up, an install or another pass left behind. *)
    Gc.full_major ();
    if trace && !passes > !traced_passes then begin
      let (), d = registry_delta (fun () -> traced_pass env tally spans asic_cfg) in
      add_delta traced_totals d;
      incr traced_passes;
      (* Keeps the next untraced pass's "before" kernel adjacent to it. *)
      ignore (Host.factor host)
    end
    else begin
      let dt, words, major = gc_delta (fun () -> pass env tally dts) in
      (* [updates_per_s] here: the rate at which the Inst1 set installs
         into a fresh stack, one install after every untraced pass, so
         that it samples the whole window as the passes do. *)
      let install_s = snd (provision env.entries) in
      let f = Host.factor host in
      record env lat dts f;
      raw_e2e := !raw_e2e +. sum dts;
      Samples.add pass_times (dt *. f);
      incr passes;
      pass_total := !pass_total +. (dt *. f);
      minor := !minor +. words;
      majors := !majors + major;
      Samples.add install_times (install_s *. f)
    end
  done;
  let peak_rss = peak_rss_mb () in
  let fault_id, detected = fault_detected env in
  let next_clean = next_seed_clean seed in
  let samples = Samples.to_array lat.all in
  let common = Samples.to_array lat.common and escalated = Samples.to_array lat.escalated in
  let n = Array.length samples in
  let judged = !passes * Array.length env.packets in
  let us x = 1e6 *. x in
  let notes =
    [ Printf.sprintf "input: %d entries installed, %d-packet mix, %d passes"
        (List.length env.entries) (Array.length env.packets) (!passes + !traced_passes);
      Printf.sprintf "gate: %d/%d packets admitted on a fault-free stack (%d diverged, %d raised)"
        (tally.attempted - tally.diverged - tally.raised)
        tally.attempted tally.diverged tally.raised;
      Printf.sprintf "gate: seeded fault %s %s" fault_id
        (if detected then "detected" else "NOT detected");
      Printf.sprintf "gate: seed %d inputs admitted: %b" (seed + 1) next_clean;
      Host.note host ]
  in
  let metrics, accounting =
    if not trace then
      ( [ metric ~n:setup_reps "setup_s" "s" (median setup_times);
        metric ~n:(Samples.length pass_times) "verdict_s" "s" (median (Samples.to_array pass_times));
        metric ~n:judged "packets_per_s" "1/s" (float_of_int judged /. !pass_total);
        metric ~n "packet_p50_us" "us" (us (quantile 0.5 samples));
        metric ~n:(Array.length common) "packet_p99_us" "us" (us (quantile 0.99 common));
        metric ~n:(Samples.length install_times * List.length env.entries) "updates_per_s" "1/s"
          (float_of_int (Samples.length install_times * List.length env.entries)
          /. sum (Samples.to_array install_times));
          metric "peak_rss_mb" "MB" peak_rss ],
        [] )
    else begin
      let tn = spans.packets in
      let per_packet x = us (x /. float_of_int tn) in
      let layers =
        registry_layers ~units:(float_of_int !traced_passes) (total_delta traced_totals)
      in
      let inject = per_packet spans.inject and eval = per_packet spans.eval in
      let untraced_e2e = us (!raw_e2e /. float_of_int judged) in
      let traced_e2e = per_packet spans.e2e in
      let judge = per_packet spans.judge_ in
      let per_pass = per_packet (spans.pass -. spans.eval) in
      let unattributed = per_pass -. inject -. judge in
      ( layers
      @ [ metric ~n:tn "switch.inject_us" "us" inject;
          metric ~n:tn "bmv2.eval_us" "us" eval;
          metric ~n:tn "switch.overhead_us" "us" (inject -. eval);
          metric ~n:tn "oracle.judge_us" "us" judge;
          metric ~n:tn "packet.unattributed_us" "us" unattributed;
          metric ~n:judged "packet.alloc_words" "words" (!minor /. float_of_int judged);
          metric ~n:(Array.length escalated) "oracle.escalated_p50_us" "us"
            (if escalated = [||] then 0. else us (median escalated));
          metric ~n:(Samples.length lat.small) "packet.small_p50_us" "us"
            (us (median (Samples.to_array lat.small)));
          metric ~n:(Samples.length lat.large) "packet.large_p50_us" "us"
            (us (median (Samples.to_array lat.large)));
          metric ~n:judged "gc.major_per_kpkt" "count"
            (1000. *. float_of_int !majors /. float_of_int judged);
          metric ~n:(tn + n) "trace.overhead_pct" "%"
            (100. *. ratio (traced_e2e -. untraced_e2e) untraced_e2e) ],
        [ Printf.sprintf
            "accounting, per traced packet (n=%d): inject %.4g + judge %.4g + unattributed \
             %.4g = %.4g us, the traced pass time per packet less the evaluator probe"
            tn inject judge unattributed per_pass ] )
    end
  in
  { correct = tally.diverged = 0 && tally.raised = 0 && detected && next_clean;
    attempted = tally.attempted;
    failed = tally.diverged + tally.raised;
    metrics;
    notes = notes @ accounting }
