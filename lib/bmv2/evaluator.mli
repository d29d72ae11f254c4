(** A P4 model evaluator as a value.

    The reference interpreter ({!Interp}) and the staged evaluator
    ({!Compile}) differ only in how a fresh {!Interp.rt} is parsed and run
    through ingress and egress; runtime state, deparsing, drop/punt/mirror
    resolution and coverage emission are shared. An evaluator is that one
    difference. Every per-packet entry point is written once here over it,
    so a caller picks the evaluator once (where its stack is built) and
    the two can never be mixed within a campaign.

    Both evaluators are behaviour-identical: same [behavior] (trace
    included), same coverage-counter keys, same hash-call accounting, same
    [Parse_failure] messages. Campaigns run with [--no-compile] archive a
    byte-identical corpus (`make check-scale`), and test/test_match.ml
    drives the two differentially. *)

module Packet = Switchv_packet.Packet

type t = Interp.rt -> string -> unit
(** Parse the bytes into a fresh runtime, then run ingress and egress. *)

val interpreted : t
(** The tree-walking reference interpreter ({!Interp.pipeline}): linear
    table scans, no staging. The other value is {!Compile.evaluator}. *)

val run : t -> Interp.config -> ingress_port:int -> string -> Interp.behavior
(** Process raw wire bytes arriving on [ingress_port]. Raises
    {!Interp.Parse_failure} when the bytes do not parse. *)

val run_info : t -> Interp.config -> ingress_port:int -> string -> Interp.run_info
(** {!run} plus the execution facts a set-valued oracle needs. *)

val run_packet : t -> Interp.config -> ingress_port:int -> Packet.t -> Interp.behavior
(** Convenience: serialises the packet first. *)

val run_packet_out :
  t -> Interp.config -> egress_port:int option -> Packet.t -> Interp.behavior
(** Controller packet-out: [Some port] bypasses the pipeline and emits
    directly; [None] submits to ingress (sets [std.submit_to_ingress]). *)

val enumerate_behaviors :
  t -> Interp.config -> ingress_port:int -> string -> Interp.behavior list
(** Round-robin over [Fixed] hash outcomes until the behaviour set stops
    growing (at most 32 rounds): the set of possible behaviours
    of a non-deterministic program on this packet. *)

val enumerate_packet_out :
  t -> Interp.config -> egress_port:int option -> Packet.t -> Interp.behavior list
(** {!enumerate_behaviors} for a controller packet-out ({!run_packet_out}). *)
