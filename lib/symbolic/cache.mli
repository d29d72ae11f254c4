(** Result cache for generated test packets (§6.3).

    Keys are content digests of (program, entries, goals); values are the
    serialised generation results. The cache can live purely in memory or
    be backed by a directory of files, in which case results survive
    across processes (the nightly-run use case). *)

type t

val in_memory : unit -> t

val on_disk : string -> t
(** The directory (and any missing parents) is created on first store if
    needed; creation is race-tolerant, so parallel workers may share one
    directory. *)

val find : t -> key:string -> string option
(** Raw serialised payload, if present. Unreadable, truncated, or
    otherwise corrupt on-disk entries are reported as misses (counted in
    the [cache.corrupt_dropped] telemetry counter), never raised. Each
    file carries its payload's length and digest, so a damaged payload is
    caught before it is returned. *)

val store : t -> key:string -> string -> unit
(** Crash-safe on disk: the payload is written to a temporary file and
    [rename]d into place, so a reader never observes a partial write. *)

val hits : t -> int
val misses : t -> int
