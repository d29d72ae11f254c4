(** Multi-switch fabric campaigns: PTF-style end-to-end differential
    testing with hop-localized triage.

    A fabric campaign wires [switches] simulated stacks into a
    {!Switchv_topo.Topo} shape, programs every switch with the
    deterministic {!Switchv_topo.Routes} plan, and drives a fixed suite of
    end-to-end flows (host-to-host traffic at TTL boundaries, DSCP-marked
    mirror traffic, unadmitted/LLDP probes, and controller packet-outs)
    through both the stack fabric and an identically-wired reference-model
    fabric. Each flow is checked two ways:

    - {e per hop}: every switch-side hop is judged by the set-valued
      {!Switchv_oracle.Dataplane} oracle against the model run on that
      hop's {e own} input bytes. The first divergent hop localizes the
      fault to the switch that introduced it ("hop-differential triage"):
      downstream hops are self-consistent given their perturbed input, so
      only the faulty switch diverges. Localized incidents carry the hop
      in their context (["sw<k>"]) and fingerprint, plus a data reproducer
      (that switch's entries + the bytes as they arrived there) which
      delta-debugs like any single-switch repro;
    - {e end to end}: the model trace's {!Switchv_oracle.Endtoend}
      expectation (deliver at a specific edge, or nowhere) is asserted on
      the switch trace, with delivered bytes compared under the oracle's
      taint mask. Mismatches with no divergent hop are reported
      unlocalized — unless some hop consulted a hash, in which case the
      mismatch is admitted ([topo.nondet_admits]) like any set-valued
      verdict.

    Determinism: topology, routes, and the flow suite are pure functions
    of the config; flows are partitioned by {!Switchv_parallel.Shard} and
    judged independently, so incidents (and corpus output) are
    byte-identical at any [jobs] value for a fixed shard count. *)

module Topo = Switchv_topo.Topo
module Fault = Switchv_switch.Fault
module Ast = Switchv_p4ir.Ast

type config = {
  shape : Topo.shape;
  switches : int;
  spines : int option;          (** leaf-spine only; [None] = default *)
  seed : int;                   (** perturbs every switch's hash seed *)
  budget : int option;          (** hop budget; [None] = {!Switchv_topo.Fabric.default_budget} *)
  max_incidents : int;
  shards : int;                 (** flow slices (fixed decomposition) *)
  packet_out : bool;            (** include packet-out injection flows *)
  faults : (int * Fault.t list) list;
      (** per-switch seeded faults, keyed by switch index; absent switches
          run clean *)
  minimize : bool;
      (** ddmin localized reproducers in-slice, {!Harness.ddmin_probes}
          probes each *)
  evaluator : Switchv_bmv2.Evaluator.t;
      (** runs every stack ASIC and model node: the campaign builds its
          own stacks, so this is its one evaluator choice. With
          {!Switchv_bmv2.Evaluator.interpreted} ([--no-compile]) incidents,
          clusters and corpus are byte-identical to the staged default *)
}

val default_config : Topo.shape -> int -> config
(** Seedless, unsharded, packet-out on, 25-incident budget, no
    minimization, {!Switchv_bmv2.Compile.evaluator}. *)

val run :
  ?jobs:int -> Ast.program -> config ->
  Report.incident list * Report.fabric_stats
(** Build the fabric, program it, run the flow suite. Setup failures
    (P4Info push, entry rejections) become incidents with the switch as
    their hop. Per-switch model-edge coverage (from the
    [topo.sw.<i>.cov.*] re-emission) lands in
    [fs_switch_coverage]. *)

