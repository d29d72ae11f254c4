module Telemetry = Switchv_telemetry.Telemetry

type backend = Memory | Disk of string

type t = {
  backend : backend;
  table : (string, string) Hashtbl.t;
  mutable n_hits : int;
  mutable n_misses : int;
}

let in_memory () = { backend = Memory; table = Hashtbl.create 16; n_hits = 0; n_misses = 0 }

let on_disk dir = { backend = Disk dir; table = Hashtbl.create 16; n_hits = 0; n_misses = 0 }

let path dir key = Filename.concat dir (key ^ ".cache")

(* On-disk entries carry a tiny header — "swvc2 <payload-length>
   <payload-md5>\n". A torn write (crash mid-write, or a reader racing a
   non-atomic writer from an older binary) shows as a body of the wrong
   length; a damaged body of the right length shows as a digest mismatch.
   Either way the file is treated as absent, so a corrupt payload never
   reaches [Marshal], which may crash rather than raise on bad input. *)
let magic = "swvc2"

let encode payload =
  Printf.sprintf "%s %d %s\n%s" magic (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let decode raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some nl -> (
      match String.split_on_char ' ' (String.sub raw 0 nl) with
      | [ m; len; digest ] when String.equal m magic -> (
          match int_of_string_opt len with
          | Some n when n >= 0 && String.length raw = nl + 1 + n ->
              let payload = String.sub raw (nl + 1) n in
              if String.equal digest (Digest.to_hex (Digest.string payload)) then
                Some payload
              else None
          | _ -> None)
      | _ -> None)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corrupt_dropped () =
  Telemetry.incr (Telemetry.get ()) "cache.corrupt_dropped"

let find t ~key =
  let result =
    match Hashtbl.find_opt t.table key with
    | Some v -> Some v
    | None -> (
        match t.backend with
        | Memory -> None
        | Disk dir -> (
            (* An unreadable or corrupt file is a miss, never a failure: a
               crash may leave garbage behind, and parallel workers share
               this directory. *)
            let file = path dir key in
            match (if Sys.file_exists file then Some (read_file file) else None) with
            | exception _ ->
                corrupt_dropped ();
                None
            | None -> None
            | Some raw -> (
                match decode raw with
                | Some payload ->
                    Hashtbl.replace t.table key payload;
                    Some payload
                | None ->
                    corrupt_dropped ();
                    None)))
  in
  (match result with
  | Some _ ->
      t.n_hits <- t.n_hits + 1;
      Telemetry.incr (Telemetry.get ()) "cache.hits"
  | None ->
      t.n_misses <- t.n_misses + 1;
      Telemetry.incr (Telemetry.get ()) "cache.misses");
  result

(* [Sys.mkdir] is neither recursive nor race-tolerant: two workers creating
   the cache directory simultaneously would crash the loser. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let store t ~key payload =
  Hashtbl.replace t.table key payload;
  match t.backend with
  | Memory -> ()
  | Disk dir ->
      mkdir_p dir;
      let final = path dir key in
      (* Write-to-temp then rename: readers only ever observe a complete
         file (rename is atomic within a directory), and concurrent writers
         of the same key each publish a complete value, last one wins. The
         pid suffix keeps the temp names of racing writers distinct. *)
      let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (try
         output_string oc (encode payload);
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp final

let hits t = t.n_hits
let misses t = t.n_misses
