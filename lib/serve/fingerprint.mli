(** Content fingerprints for dataset identity.

    The serving layer keys registry entries and staleness checks on a
    fingerprint of the {e raw bytes} of the CSV file a dataset was loaded
    from. Hashing bytes (rather than the parsed,
    normalized points) makes the staleness contract simple and strict: any
    rewrite of the file on disk, even one that re-serializes the same
    values, invalidates the loaded StoredList and forces an explicit
    re-[load]. The hash is the same FNV-1a used by
    {!Kregret.Stored_list.save} for its on-disk lists. *)

(** [of_string s] — FNV-1a (64-bit) over the bytes of [s], rendered as 16
    lowercase hex digits. *)
val of_string : string -> string

(** [of_file path] reads [path] and fingerprints its contents. [Error]
    (with the failing path in the message) when the file cannot be read —
    never raises. *)
val of_file : string -> (string, string) result

(** {1 Stat signatures}

    Per-query staleness checks cannot afford to re-read the file (that is
    O(file) on every request). A stat signature — device, inode, size,
    mtime — is the cheap negative check: if it matches the signature taken
    when the bytes were read, the file has not been touched and the stored
    fingerprint still describes it. A mismatched signature proves nothing
    by itself; callers fall back to {!of_file} for the byte-level verdict,
    so a [touch] without a rewrite never invalidates a dataset. *)

type stat_sig = { dev : int; ino : int; size : int; mtime : float }

(** [sig_of_stats st] — the signature of an already-obtained [Unix.stats]
    (use with [Unix.fstat] on the very descriptor the bytes were read
    from, so signature and contents cannot race a concurrent rename). *)
val sig_of_stats : Unix.stats -> stat_sig

(** [sig_of_path path] — stat by path; [Error] when unreadable. *)
val sig_of_path : string -> (stat_sig, string) result
