(* The SwitchV benchmark executable: one workload per process, measured for a
   fixed wall-clock window, checked for correctness, and reported as
   human-readable lines followed by one JSON result line.

     perfbench.exe --workload validate_pins|packet_path|control_churn
                   --seed N --seconds S --trace 0|1 [--rev REV]
     perfbench.exe --workload census --seed N

   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   breakdown; run.py checks them against the metrics BENCHMARK.json
   declares. The telemetry registry stays enabled in both (greybox
   scheduling reads coverage deltas from it); no trace sink is installed.
   [census] prints the composition of the test packets SwitchV generates
   for the Inst1 set of seed N, from which packet_path's mix is drawn. *)

open Common

let workloads =
  [ ("validate_pins", Validate_pins.run); ("packet_path", Packet_path.run);
    ("control_churn", Control_churn.run) ]

let json_result (o : outcome) metrics =
  let module J = Telemetry.Json in
  J.obj
    [ ("correct", J.bool o.correct);
      ("attempted", J.int o.attempted);
      ("failed", J.int o.failed);
      ( "metrics",
        J.obj
          (List.map
             (fun (m : metric) ->
               (m.name, J.obj [ ("value", Printf.sprintf "%.17g" m.value); ("unit", J.str m.unit_) ]))
             metrics) ) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME validate_pins | packet_path | control_churn | census");
      ("--seed", Arg.Set_int seed, "N workload seed (all inputs derive from it)");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rev", Arg.Set_string rev, "REV source revision, recorded as provenance") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !workload = "census" then begin
    Packet_path.census !seed;
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  let tele = Telemetry.get () in
  Telemetry.reset tele;
  Telemetry.set_enabled tele true;
  Telemetry.set_sink tele None;
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  let metrics = o.metrics in
  let module J = Telemetry.Json in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds
    (if trace then 1 else 0);
  Printf.printf "provenance %s\n"
    (J.obj
       [ ("rev", J.str !rev); ("ocaml", J.str Sys.ocaml_version);
         ("nproc", J.int (Domain.recommended_domain_count ())); ("seed", J.int !seed);
         ("workload", J.str !workload); ("seconds", J.num !seconds);
         ("units", J.obj (List.map (fun (m : metric) -> (m.name, J.str m.unit_)) metrics)) ]);
  List.iter (fun l -> Printf.printf "  %s\n" l) o.notes;
  List.iter
    (fun (m : metric) ->
      Printf.printf "  %-32s %14.6g %-6s n=%d%s\n" m.name m.value m.unit_ m.n
        (if m.n = 0 then " (not exercised)" else ""))
    metrics;
  Printf.printf "  %-32s %14.6g %-6s n=%d\n" "error_rate"
    (ratio (float_of_int o.failed) (float_of_int o.attempted))
    "ratio" o.attempted;
  print_endline (json_result o metrics)
