(* Fork-based worker pool.

   The parent forks one worker per [Shard.assignment] slot *after* all
   expensive setup (parsed program, installed reference stack, symbolic
   encoding) so children inherit it copy-on-write for free. Each worker
   runs its assigned shards in order and streams one frame per shard back
   over a pipe; the parent multiplexes the pipes with [select] and
   reassembles results *by shard id*, so the merged array is independent
   of scheduling.

   Failure policy: a worker that crashes or goes silent past the deadline
   loses its remaining shards. Lost shards degrade coverage — they are
   logged and counted under [parallel.workers_failed] — but never abort
   the run. SIGINT tears the whole pool down. *)

type outcome = Done of string | Lost of string

type result = {
  outcomes : outcome array;
  workers_failed : int;
}

type worker = {
  pid : int;
  rfd : Unix.file_descr;
  dec : Ipc.decoder;
  shards : int list;            (* shards this worker owns, ascending *)
  mutable delivered : int;      (* frames received so far *)
  mutable last_activity : float;
  mutable open_ : bool;
}

(* Worker-side envelope: shard id, payload or error, and a telemetry
   export so counters/histograms bumped inside the child survive the
   process boundary. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let telemetry_export_json (ex : Switchv_telemetry.Telemetry.export) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape name) v))
    ex.Switchv_telemetry.Telemetry.ex_counters;
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (name, (hd : Switchv_telemetry.Telemetry.histogram_dump)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":{\"buckets\":[" (json_escape name));
      Array.iteri
        (fun j n ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int n))
        hd.hd_buckets;
      Buffer.add_string b
        (Printf.sprintf "],\"count\":%d,\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g}"
           hd.hd_count hd.hd_sum hd.hd_min hd.hd_max))
    ex.Switchv_telemetry.Telemetry.ex_histograms;
  Buffer.add_string b "}}";
  Buffer.contents b

let envelope_json ~shard ~payload ~error ~telemetry =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "{\"shard\":%d," shard);
  (match payload with
  | Some p -> Buffer.add_string b (Printf.sprintf "\"payload\":\"%s\"," (json_escape p))
  | None -> ());
  (match error with
  | Some e -> Buffer.add_string b (Printf.sprintf "\"error\":\"%s\"," (json_escape e))
  | None -> ());
  Buffer.add_string b (Printf.sprintf "\"telemetry\":%s}" telemetry);
  Buffer.contents b

(* Mid-shard frames: a telemetry heartbeat (delta since the previous
   heartbeat — absorbing the stream reproduces the full export exactly)
   and a batch of raw trace-event lines the parent re-emits into its own
   sink. Both are distinguished from result envelopes by their key. *)
let heartbeat_json ~telemetry = Printf.sprintf "{\"hb\":1,\"telemetry\":%s}" telemetry

let trace_json lines =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"trace\":[";
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (json_escape line);
      Buffer.add_char b '"')
    lines;
  Buffer.add_string b "]}";
  Buffer.contents b

let absorb_telemetry_json tele j =
  let module T = Switchv_telemetry.Telemetry in
  let module J = Switchv_triage.Jsonp in
  let counters =
    match J.member "counters" j with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            match J.to_int v with Some n -> Some (k, n) | None -> None)
          kvs
    | _ -> []
  in
  let histograms =
    match J.member "histograms" j with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            let buckets =
              match J.member "buckets" v with
              | Some (J.Arr xs) ->
                  Some
                    (Array.of_list
                       (List.map (fun x -> Option.value ~default:0 (J.to_int x)) xs))
              | _ -> None
            in
            let num key = Option.bind (J.member key v) J.to_num in
            match
              (buckets, Option.bind (J.member "count" v) J.to_int, num "sum", num "min",
               num "max")
            with
            | Some hd_buckets, Some hd_count, Some hd_sum, Some hd_min, Some hd_max ->
                Some (k, { T.hd_buckets; hd_count; hd_sum; hd_min; hd_max })
            | _ -> None)
          kvs
    | _ -> []
  in
  T.absorb tele { T.ex_counters = counters; ex_histograms = histograms }

(* --- child --------------------------------------------------------------- *)

let heartbeat_s = 0.5

let run_child ~sid_base ~root_psid ~trace wfd shards task =
  (* One fresh registry per worker, seeded with its own span-id block so
     every span id in the campaign is globally unique, and with the
     parent's span open at fork time as the parent of its depth-0 spans.
     Telemetry leaves the worker only as deltas — periodic heartbeats plus
     a final delta on each result envelope — so the parent can absorb
     every frame additively and the merged totals are exactly the full
     export, independent of flush cadence and of --jobs. *)
  let module T = Switchv_telemetry.Telemetry in
  let reg = T.create () in
  T.seed_spans reg ~sid_base ~root_psid;
  let pending = ref [] in
  if trace then
    T.set_sink reg (Some (fun line -> pending := line :: !pending));
  let flush_trace () =
    if !pending <> [] then begin
      let lines = List.rev !pending in
      pending := [];
      Ipc.write_frame wfd (trace_json lines)
    end
  in
  let absorbed = ref { T.ex_counters = []; ex_histograms = [] } in
  let take_delta () =
    let delta = T.diff_export reg ~base:!absorbed in
    absorbed := T.export reg;
    delta
  in
  let last_flush = ref (Unix.gettimeofday ()) in
  (* Piggy-back on span finishes (packet injections, solver checks, ...):
     no timers, and a worker wedged inside one long computation simply
     stops heartbeating, which is what the parent's deadline is for. *)
  T.set_tick reg
    (Some
       (fun () ->
         let now = Unix.gettimeofday () in
         if now -. !last_flush >= heartbeat_s then begin
           last_flush := now;
           flush_trace ();
           let delta = take_delta () in
           if delta.T.ex_counters <> [] || delta.T.ex_histograms <> [] then
             Ipc.write_frame wfd
               (heartbeat_json ~telemetry:(telemetry_export_json delta))
         end));
  List.iter
    (fun shard ->
      let payload, error =
        match
          T.with_registry reg (fun () ->
              T.with_span reg "parallel.shard"
                ~attrs:[ ("shard", string_of_int shard) ] (fun () -> task shard))
        with
        | p -> (Some p, None)
        | exception e -> (None, Some (Printexc.to_string e))
      in
      flush_trace ();
      let telemetry = telemetry_export_json (take_delta ()) in
      Ipc.write_frame wfd (envelope_json ~shard ~payload ~error ~telemetry))
    shards

(* --- parent -------------------------------------------------------------- *)

let tick_s = 0.25

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let run ?(deadline_s = 300.) ?(parent_shards = []) ~jobs ~shards task =
  let module T = Switchv_telemetry.Telemetry in
  let module J = Switchv_triage.Jsonp in
  let tele = T.get () in
  (* The pool span is the stitching anchor: it is open when the workers
     fork, so every worker's [parallel.shard] root hangs off it in the
     campaign trace. *)
  T.with_span tele "parallel.pool" @@ fun () ->
  let outcomes =
    Array.init shards (fun s -> Lost (Printf.sprintf "shard %d not executed" s))
  in
  let remote =
    List.filter (fun s -> not (List.mem s parent_shards)) (List.init shards Fun.id)
  in
  let plan =
    Shard.assignment ~jobs ~shards:(List.length remote)
    |> Array.map (List.map (List.nth remote))
  in
  let plan = Array.to_list plan |> List.filter (fun l -> l <> []) in
  (* Fork the workers. stdout/stderr are flushed first so buffered output
     is not emitted twice; each write end is closed in the parent before
     the next fork, so no child holds a copy of another worker's write end
     and EOF on a pipe reliably means its worker is gone. *)
  flush stdout;
  flush stderr;
  let root_psid = T.current_sid tele in
  let trace = T.tracing tele in
  let workers =
    List.map
      (fun shard_list ->
        let rfd, wfd = Unix.pipe ~cloexec:false () in
        let sid_base = T.alloc_sid_block tele in
        match Unix.fork () with
        | 0 ->
            Unix.close rfd;
            (match run_child ~sid_base ~root_psid ~trace wfd shard_list task with
            | () -> ()
            | exception _ -> ());
            (try Unix.close wfd with Unix.Unix_error _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close wfd;
            {
              pid;
              rfd;
              dec = Ipc.decoder ();
              shards = shard_list;
              delivered = 0;
              last_activity = Unix.gettimeofday ();
              open_ = true;
            })
      plan
  in
  let failed = ref 0 in
  let lose w reason =
    (* Any shard this worker had not yet delivered is gone; record why. *)
    let missing = ref [] in
    List.iteri
      (fun i s ->
        if i >= w.delivered then begin
          outcomes.(s) <- Lost reason;
          missing := s :: !missing
        end)
      w.shards;
    if !missing <> [] then begin
      incr failed;
      T.incr tele "parallel.workers_failed";
      Printf.eprintf "switchv: worker %d lost shard(s) %s: %s\n%!" w.pid
        (String.concat ", " (List.rev_map string_of_int !missing))
        reason
    end
  in
  let teardown () =
    List.iter
      (fun w ->
        kill_quietly w.pid Sys.sigkill;
        if w.open_ then begin
          (try Unix.close w.rfd with Unix.Unix_error _ -> ());
          w.open_ <- false
        end)
      workers;
    List.iter (fun w -> reap w.pid) workers
  in
  let prev_int =
    (* On Ctrl-C: kill and reap every worker, restore the old handler, and
       re-raise so the caller's cleanup still runs. *)
    try
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle
              (fun _ ->
                teardown ();
                raise Sys.Break)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_int () =
    match prev_int with
    | Some h -> ( try Sys.set_signal Sys.sigint h with _ -> ())
    | None -> ()
  in
  let handle_result w j =
    let shard = Option.bind (J.member "shard" j) J.to_int in
    let payload = Option.bind (J.member "payload" j) J.to_str in
    let error = Option.bind (J.member "error" j) J.to_str in
    (match J.member "telemetry" j with
    | Some tj -> absorb_telemetry_json tele tj
    | None -> ());
    w.delivered <- w.delivered + 1;
    match shard with
    | Some s when s >= 0 && s < shards -> (
        match (payload, error) with
        | Some p, _ -> outcomes.(s) <- Done p
        | None, Some e -> outcomes.(s) <- Lost (Printf.sprintf "worker error: %s" e)
        | None, None -> outcomes.(s) <- Lost "worker sent empty frame")
    | _ -> Printf.eprintf "switchv: worker %d sent frame with bad shard id\n%!" w.pid
  in
  let handle_frame w frame =
    (* Three frame kinds share the pipe: trace-line batches and telemetry
       heartbeats stream mid-shard; a result envelope ends a shard. Only
       result envelopes count towards [delivered]. *)
    match J.parse frame with
    | Ok j when J.member "trace" j <> None ->
        if T.tracing tele then (
          match J.member "trace" j with
          | Some (J.Arr lines) ->
              List.iter
                (fun l ->
                  match J.to_str l with
                  | Some line -> T.emit_raw tele line
                  | None -> ())
                lines
          | _ -> ())
    | Ok j when J.member "hb" j <> None -> (
        match J.member "telemetry" j with
        | Some tj -> absorb_telemetry_json tele tj
        | None -> ())
    | Ok j -> handle_result w j
    | Error _ ->
        w.delivered <- w.delivered + 1;
        Printf.eprintf "switchv: worker %d sent an unparseable frame\n%!" w.pid
  in
  let buf = Bytes.create 65536 in
  let finish () =
    let rec drain w =
      (* Parent shards run in-process, after the forks, so workers compute
         concurrently with them. *)
      match Ipc.next w.dec with
      | Some frame ->
          handle_frame w frame;
          drain w
      | None -> ()
      | exception Ipc.Corrupt msg ->
          (try Unix.close w.rfd with Unix.Unix_error _ -> ());
          w.open_ <- false;
          kill_quietly w.pid Sys.sigkill;
          lose w (Printf.sprintf "corrupt stream: %s" msg)
    in
    List.iter
      (fun s ->
        match task s with
        | p -> outcomes.(s) <- Done p
        | exception e ->
            outcomes.(s) <- Lost (Printexc.to_string e);
            incr failed;
            T.incr tele "parallel.workers_failed";
            Printf.eprintf "switchv: parent shard %d failed: %s\n%!" s
              (Printexc.to_string e))
      parent_shards;
    let live () = List.filter (fun w -> w.open_) workers in
    let rec loop () =
      match live () with
      | [] -> ()
      | ws ->
          let fds = List.map (fun w -> w.rfd) ws in
          let readable =
            match Unix.select fds [] [] tick_s with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          let now = Unix.gettimeofday () in
          List.iter
            (fun w ->
              if List.mem w.rfd readable then begin
                match Unix.read w.rfd buf 0 (Bytes.length buf) with
                | 0 ->
                    (* EOF: worker finished (all frames delivered) or died. *)
                    (try Unix.close w.rfd with Unix.Unix_error _ -> ());
                    w.open_ <- false;
                    reap w.pid;
                    if Ipc.pending w.dec then
                      lose w "exited mid-frame"
                    else if w.delivered < List.length w.shards then
                      lose w "worker exited early (crash?)"
                | n ->
                    w.last_activity <- now;
                    Ipc.feed w.dec buf n;
                    drain w
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error (e, _, _) ->
                    (try Unix.close w.rfd with Unix.Unix_error _ -> ());
                    w.open_ <- false;
                    kill_quietly w.pid Sys.sigkill;
                    reap w.pid;
                    lose w (Printf.sprintf "read error: %s" (Unix.error_message e))
              end
              else if w.open_ && now -. w.last_activity > deadline_s then begin
                (* Silent past the deadline: assume wedged and reclaim. *)
                kill_quietly w.pid Sys.sigkill;
                (try Unix.close w.rfd with Unix.Unix_error _ -> ());
                w.open_ <- false;
                reap w.pid;
                lose w
                  (Printf.sprintf "no output for %.0fs, killed" deadline_s)
              end)
            ws;
          loop ()
    in
    loop ()
  in
  (match finish () with
  | () -> restore_int ()
  | exception e ->
      teardown ();
      restore_int ();
      raise e);
  { outcomes; workers_failed = !failed }
