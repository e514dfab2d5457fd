module Vector = Kregret_geom.Vector

type t = {
  order_array : int array;
  (* mrr_after.(i) = maximum regret ratio of the first i+1 list entries *)
  mrr_after : float array;
}

(* [f], asked at most once per argument *)
let once f =
  let seen = Hashtbl.create 64 in
  fun i ->
    match Hashtbl.find_opt seen i with
    | Some v -> v
    | None ->
        let v = f i in
        Hashtbl.add seen i v;
        v

let preprocess ?max_length ?admit points =
  let n = Array.length points in
  let budget = match max_length with None -> n | Some m -> min m n in
  let admit = Option.map once admit in
  let table = Hashtbl.create 16 in
  let result =
    Geo_greedy.run ?admit
      ~on_step:(fun ~size ~mrr -> Hashtbl.replace table size mrr)
      ~points ~k:budget ()
  in
  let order_array = Array.of_list result.Geo_greedy.order in
  (* prefixes shorter than the boundary seeding are not visited by the
     greedy loop; evaluate them directly. Over admitted points only, the
     minimum critical ratio is the first admitted one in ascending order,
     so certifying in that order stops there *)
  let short_prefix_mrr size =
    let selected = List.init size (fun j -> points.(order_array.(j))) in
    match admit with
    | None -> Mrr.geometric ~data:(Array.to_list points) ~selected
    | Some admit ->
        let cr = Mrr.critical_ratios ~selected points in
        let by_cr = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Float.compare cr.(a) cr.(b)) by_cr;
        let rec first i = if admit by_cr.(i) then i else first (i + 1) in
        Float.max 0. (1. -. cr.(by_cr.(first 0)))
  in
  let mrr_after =
    Array.mapi
      (fun i _ ->
        match Hashtbl.find_opt table (i + 1) with
        | Some mrr -> mrr
        | None -> short_prefix_mrr (i + 1))
      order_array
  in
  { order_array; mrr_after }

type funnel = { sky : int array; stored : t option }

let funnel ?max_length points =
  let sky = Kregret_skyline.Skyline.sfs points in
  let rows = Array.map (fun i -> points.(i)) sky in
  let stored =
    if Array.length rows = 0 then None
    else
      let screen = Kregret_happy.Happy.prepare rows in
      let admit i = Kregret_happy.Happy.verdict screen i = None in
      let s = preprocess ?max_length ~admit rows in
      if s.order_array = [||] then None else Some s
  in
  { sky; stored }

let reindex t f = { t with order_array = Array.map f t.order_array }

let length t = Array.length t.order_array
let order t = Array.to_list t.order_array

let query t ~k =
  if k < 1 then invalid_arg "Stored_list.query: k must be positive";
  let len = min k (length t) in
  List.init len (fun i -> t.order_array.(i))

let mrr_at t ~k =
  if k < 1 then invalid_arg "Stored_list.mrr_at: k must be positive";
  let len = min k (length t) in
  t.mrr_after.(len - 1)

(* ---- persistence ---------------------------------------------------------

   Text format:
     # kregret-stored-list v1 n=<candidates> fp=<fingerprint>
     <index> <mrr>
     ...
   The fingerprint is an FNV-1a hash over the raw float bits of the candidate
   array, enough to catch the realistic failure mode: replaying a list
   against a regenerated or re-ordered dataset. *)

let fingerprint points =
  let h = ref 0xcbf29ce484222325L in
  let mix bits =
    h := Int64.mul (Int64.logxor !h bits) 0x100000001b3L
  in
  Array.iter
    (fun p ->
      Array.iter (fun x -> mix (Int64.bits_of_float x)) p)
    points;
  Printf.sprintf "%016Lx" !h

let save t ~points path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# kregret-stored-list v1 n=%d fp=%s\n"
        (Array.length points) (fingerprint points);
      Array.iteri
        (fun i idx -> Printf.fprintf oc "%d %.17g\n" idx t.mrr_after.(i))
        t.order_array)

let load ~points path =
  let fail fmt = Printf.ksprintf failwith fmt in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header =
        try input_line ic
        with End_of_file -> fail "Stored_list.load: %s: empty file" path
      in
      (* The old check compared the header against one expected string, so a
         wrong count, a future format version and a stale fingerprint all
         reported "fingerprint mismatch". Parse the fields and name the
         actual failure. *)
      let version, file_n, file_fp =
        try
          Scanf.sscanf header "# kregret-stored-list v%d n=%d fp=%s"
            (fun v n fp -> (v, n, fp))
        with Scanf.Scan_failure _ | End_of_file | Failure _ ->
          fail "Stored_list.load: %s: not a stored-list file (header %S)" path
            header
      in
      if version <> 1 then
        fail
          "Stored_list.load: %s: unsupported format version v%d (this build \
           reads v1)"
          path version;
      let n = Array.length points in
      if file_n <> n then
        fail
          "Stored_list.load: %s: candidate count mismatch (list built for \
           n=%d, candidate set has n=%d)"
          path file_n n;
      let fp = fingerprint points in
      if not (String.equal file_fp fp) then
        fail
          "Stored_list.load: %s: fingerprint mismatch (list built from a \
           different candidate set: file has %s, data hashes to %s)"
          path file_fp fp;
      let order = ref [] and mrrs = ref [] in
      let lineno = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then begin
             (* [sscanf "%d %f"] raises [End_of_file] — not [Scan_failure] —
                on a truncated line like "5"; the old loop let it escape to
                the end-of-lines handler and silently dropped the rest of
                the file. Catch it per line and report the position. *)
             let idx, mrr =
               try
                 Scanf.sscanf line " %d %f %s" (fun idx mrr rest ->
                     if rest <> "" then
                       fail "Stored_list.load: %s:%d: trailing garbage %S"
                         path !lineno rest;
                     (idx, mrr))
               with
               | Scanf.Scan_failure _ ->
                   fail "Stored_list.load: %s:%d: malformed entry %S" path
                     !lineno line
               | End_of_file ->
                   fail
                     "Stored_list.load: %s:%d: truncated entry %S (expected \
                      \"<index> <mrr>\")"
                     path !lineno line
             in
             if idx < 0 || idx >= n then
               fail "Stored_list.load: %s:%d: index %d out of range [0, %d)"
                 path !lineno idx n;
             if Float.is_nan mrr then
               fail "Stored_list.load: %s:%d: mrr is NaN" path !lineno;
             order := idx :: !order;
             mrrs := mrr :: !mrrs
           end
         done
       with End_of_file -> ());
      {
        order_array = Array.of_list (List.rev !order);
        mrr_after = Array.of_list (List.rev !mrrs);
      })
