(** The SwitchV harness: the end-to-end nightly validation run (§2).

    A full run performs control-plane validation (p4-fuzzer + oracle)
    followed by data-plane validation (p4-symbolic + reference interpreter
    differential testing), each against a freshly provisioned switch — as
    a nightly job would re-provision the device under test. *)

module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Entry = Switchv_p4runtime.Entry
module Cache = Switchv_symbolic.Cache

val ddmin_probes : int
(** Probe budget per ddmin invocation (256), shared by the harness and
    fabric triage passes. *)

(** Every run adds {!Data_campaign.exploratory_goals} to the data
    campaign's goals, and triage always collapses incidents with identical
    fingerprints into clusters: the report keeps one representative per
    cluster plus a {!Report.cluster} summary. *)
type config = {
  control : Control_campaign.config;
      (** Its [greybox] flag drives coverage-guided feedback across both
          campaigns (on by default): the control fuzzer runs its
          probe/corpus/power-schedule loop, and the data campaigns observe
          per-packet deltas and skip branch goals the control phase
          already covered concretely ([covered_edges] computed here from
          the registry delta, jobs-invariant). [false] reproduces the
          blind pre-feedback pipeline byte-identically. *)
  data_entries : Entry.t list;
  cache : Cache.t option;
  fuzzed_data_pass : bool;
      (** §7's proposed extension: after the control-plane campaign, replay
          the (valid) entries the fuzzer left installed into a fresh switch
          and run a second data-plane pass over them — fuzzed entries
          exercise control paths the production replay does not. *)
  max_incidents : int;
  minimize : bool;
      (** Delta-debug each kept reproducer down to a 1-minimal input.
          Expensive — every ddmin probe provisions a fresh stack via
          [mk_stack] and replays — so off by default. *)
  jobs : int;
      (** Worker processes for sharded campaign execution (default 1 =
          fully sequential, no forking). The shard decompositions are
          fixed by [control.shards] / [data_shards], so the report's
          incidents, clusters, and corpus records are identical at any
          [jobs] value. *)
  data_shards : int;
      (** Coverage-goal slices for the data campaign (see
          {!Data_campaign.config}[.shards]). *)
  incremental : bool;
      (** Incremental SMT pipeline for packet generation (on by default;
          see {!Data_campaign.config}[.incremental]). Results are
          identical either way. *)
  taint : bool;
      (** Taint-aware goal classification and set-valued data-plane
          verdicts (on by default; see {!Data_campaign.config}[.taint]).
          Applies to the main and the fuzzed-entry data passes. *)
}

val default_config : Entry.t list -> config

val minimize_repro :
  (unit -> Stack.t) ->
  max_probes:int ->
  Switchv_triage.Repro.t ->
  Switchv_triage.Repro.t
(** Delta-debug one reproducer to a 1-minimal input (control: triggering
    batch first, then the prefix; data: the entry set). Each probe replays
    against a fresh [mk_stack ()]. Exposed for the triage bench and
    targeted shrinking outside a full {!validate} run. *)

val validate : (unit -> Stack.t) -> config -> Report.t
(** [validate mk_stack config]: runs both campaigns; [mk_stack] must build
    a fresh switch (same faults, same evaluator, clean state) for each
    campaign. The data campaigns run their reference model with the
    evaluator of the stacks [mk_stack] builds ({!Stack.evaluator}). *)

val detect : (unit -> Stack.t) -> config -> Report.detector option
(** Convenience: which SwitchV component (if any) finds an incident. *)

val corpus_records : Report.t -> Fault.t list -> Switchv_triage.Corpus.record list
(** One regression-corpus record per reported incident that carries a
    reproducer, tagged with the report's model and the seeded [faults]
    ids (for {!Switchv_triage.Corpus.save}). *)
