(** Plain CSV persistence for datasets.

    Format: one point per line, comma-separated decimal values, optional
    comment/header lines starting with ['#']. This is the interchange format
    of the [kregret] CLI ([kregret gen] writes it, [kregret query] reads
    it). *)

(** [save path t] writes the dataset, with a ['#'] header recording name and
    dimension. *)
val save : string -> Dataset.t -> unit

(** [load ?name path] reads a dataset back. The name defaults to the header's
    name when present, else the file's basename. Raises [Failure] with a
    line number on malformed input, non-finite fields included. *)
val load : ?name:string -> string -> Dataset.t

(** [parse_string ~path contents] parses CSV text already in memory; [path]
    only provides the fallback dataset name. Callers that must fingerprint
    exactly the bytes they parsed (the serving registry) read the file once
    and hand the contents to both the hash and this parser. Raises
    [Failure] like {!load}. *)
val parse_string : ?name:string -> path:string -> string -> Dataset.t

(** [parse_line line] parses one CSV record into a point. Raises [Failure]
    on malformed or non-finite ([nan], [inf], [-inf]) fields. Exposed for
    tests. *)
val parse_line : string -> Kregret_geom.Vector.t
