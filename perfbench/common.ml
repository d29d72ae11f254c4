(* Shared measurement machinery: clocks, raw-sample statistics, registry
   deltas, process memory, and the metric record every workload returns. *)

module Telemetry = Switchv_telemetry.Telemetry
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue

let now = Telemetry.Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- host-speed normalisation --------------------------------------------- *)

(* A shared host's speed drifts by up to a factor of two over tens of
   seconds, far more than the changes the benchmark is meant to show. Every
   timed operation is therefore bracketed by a fixed calibration kernel that
   does not touch the library, and its wall clock is scaled by
   [reference_s] over the kernel's mean time just before and just after it:
   the operation's time on a host that runs the kernel in [reference_s].
   The kernel does work of the library's kind — it allocates short-lived
   boxed data, builds balanced maps of short strings and looks keys up in
   them — because a kernel of another kind tracks the host worse: a
   pointer chase through a 4 MiB array followed the workloads' speed in
   some spells and not in others. Only the map under
   construction survives a minor collection, so the major-collector work
   the kernel causes does not depend on the heap the workload holds. *)
module Host = struct
  module M = Map.Make (Int)

  let reference_s = 0.1
  let keys = 1500
  let rounds = 230

  let kernel () =
    let acc = ref 0 in
    for r = 1 to rounds do
      let m = ref M.empty in
      for i = 0 to keys - 1 do
        let k = ((i * 7919) + r) land 0xFFFF in
        m := M.add k (string_of_int i) !m;
        match M.find_opt (k lxor 0x55) !m with
        | Some s -> acc := !acc + String.length s
        | None -> ()
      done
    done;
    Sys.opaque_identity !acc

  type t = { mutable last : float; mutable kernels : int; mutable kernel_total : float }

  let time_kernel t =
    let dt = snd (timed kernel) in
    t.kernels <- t.kernels + 1;
    t.kernel_total <- t.kernel_total +. dt;
    dt

  (* Warms the kernel up, then times it once: the "before" of the first
     operation. *)
  let create () =
    ignore (kernel ());
    let t = { last = 0.; kernels = 0; kernel_total = 0. } in
    t.last <- time_kernel t;
    t

  (* Call right after the operations to scale: times the kernel and returns
     the factor that turns their wall clock into host-normalised time. *)
  let factor t =
    let before = t.last in
    t.last <- time_kernel t;
    reference_s /. ((before +. t.last) /. 2.)

  let note t =
    Printf.sprintf
      "host: %d calibration kernels, mean %.4g s (times are scaled to a %.3g s kernel)"
      t.kernels (t.kernel_total /. float_of_int (max 1 t.kernels)) reference_s
end

(* --- statistics over raw samples ----------------------------------------- *)

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it. Always an observed value, so never above the
   maximum. *)
let quantile p samples =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))
  end

let median samples = quantile 0.5 samples

let sum samples = Array.fold_left ( +. ) 0. samples

(* A float buffer for per-operation samples that keeps the first
   [capacity] and drops the rest: its memory is allocated up front and does
   not grow with the number of operations a faster build completes. *)
module Samples = struct
  type t = { data : float array; mutable len : int }

  let create capacity = { data = Array.make capacity 0.; len = 0 }

  let add t x =
    if t.len < Array.length t.data then begin
      t.data.(t.len) <- x;
      t.len <- t.len + 1
    end

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* --- metrics -------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; n : int }
(** [n] is the sample count behind [value]: operations timed, campaigns
    run, or packets judged. [n = 0] marks a layer the workload does not
    exercise; its value is then 0. *)

let metric ?(n = 1) name unit_ value = { name; unit_; value; n }

let ratio a b = if b = 0. then 0. else a /. b

(* --- registry deltas ------------------------------------------------------ *)

(* Counts and span totals the library records, taken as the difference
   between two [Telemetry.export]s. Histogram quantiles are never read:
   only [hd_count] and [hd_sum]. *)
type delta = Telemetry.export

let registry_delta f =
  let tele = Telemetry.get () in
  let base = Telemetry.export tele in
  let r = f () in
  (r, Telemetry.diff_export tele ~base)

(* Deltas summed in a separate registry as operations complete, so what a
   run keeps — and so [peak_rss_mb] — does not grow with the number of
   operations a faster build completes. *)
let totals () = Telemetry.create ()
let add_delta totals (d : delta) = Telemetry.absorb totals d
let total_delta totals : delta = Telemetry.export totals

let count (d : delta) name =
  Option.value ~default:0 (List.assoc_opt name d.ex_counters)

let span_total (d : delta) name =
  match List.assoc_opt name d.ex_histograms with
  | Some h -> h.hd_sum
  | None -> 0.

let span_count (d : delta) name =
  match List.assoc_opt name d.ex_histograms with
  | Some h -> h.hd_count
  | None -> 0

(* --- process resources ---------------------------------------------------- *)

(* Peak resident set (VmHWM) in MiB; falls back to the OCaml heap's
   high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      let st = Gc.quick_stat () in
      float_of_int (st.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Minor words allocated and major collections completed while [f] runs. *)
let gc_delta f =
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).major_collections in
  let r = f () in
  (r, Gc.minor_words () -. minor0, (Gc.quick_stat ()).major_collections - major0)

(* --- switch helpers ------------------------------------------------------- *)

(* The first PINS catalogue fault satisfying [pred], instantiated for this
   program and entry set. *)
let pins_fault program entries pred =
  match List.find_opt (fun (f : Fault.t) -> pred f) (Catalogue.pins program entries) with
  | Some f -> f
  | None -> failwith "perfbench: no catalogue fault of the requested kind"

(* Per-layer figures every workload derives from the library's own
   counters and span totals, normalised by [units] (campaigns run, or
   passes over the packet mix). A layer the workload never entered reads
   0 with [n = 0]. *)
let registry_layers ~units (d : delta) =
  let per x = ratio x units in
  let count_f name = float_of_int (count d name) in
  let span name unit_name = metric ~n:(span_count d name) unit_name "s" (per (span_total d name)) in
  let counted ?counter name =
    let counter = Option.value counter ~default:name in
    metric ~n:(int_of_float units) name "count" (per (count_f counter))
  in
  let checks = count_f "smt.checks" in
  let covered = count_f "symbolic.goals_covered" in
  let goals = covered +. count_f "symbolic.goals_uncoverable" in
  let fast = count_f "oracle.dataplane_fast" in
  let judged =
    fast +. count_f "oracle.dataplane_set_admits" +. count_f "oracle.dataplane_escalations"
  in
  [ span "campaign.control" "core.control_s";
    span "campaign.generation" "core.generation_s";
    span "campaign.testing" "core.testing_s";
    span "symbolic.encode" "symbolic.encode_s";
    span "analysis.run" "analysis.run_s";
    span "smt.check" "smt.check_s";
    counted "smt.checks";
    counted "smt.decisions";
    counted "smt.conflicts";
    counted "smt.propagations";
    metric ~n:(int_of_float checks) "smt.sat_ratio" "ratio" (ratio (count_f "smt.sat") checks);
    metric ~n:(int_of_float goals) "symbolic.covered_ratio" "ratio" (ratio covered goals);
    counted "symbolic.attempts_skipped";
    span "switch.server.validate" "switch.server_validate_s";
    span "switch.syncd.sync" "switch.syncd_sync_s";
    metric ~n:(int_of_float judged) "oracle.fast_ratio" "ratio" (ratio fast judged);
    counted ~counter:"oracle.dataplane_escalations" "oracle.escalations" ]

(* What one workload run reports: the correctness verdict, the operation
   tally behind [error_rate], its metrics, and human-readable notes. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}
