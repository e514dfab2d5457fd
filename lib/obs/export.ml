(* Hand-rolled JSON writer (the library links no JSON package). *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
  else Buffer.add_string buf "null"

let sep buf first = if !first then first := false else Buffer.add_string buf ", "

let obj buf fields =
  Buffer.add_char buf '{';
  let first = ref true in
  List.iter
    (fun (k, emit) ->
      sep buf first;
      escape buf k;
      Buffer.add_string buf ": ";
      emit ())
    fields;
  Buffer.add_char buf '}'

let rec add_span buf (s : Span.snapshot) =
  obj buf
    [
      ("name", fun () -> escape buf s.Span.name);
      ("seconds", fun () -> add_float buf s.Span.seconds);
      ("count", fun () -> Buffer.add_string buf (string_of_int s.Span.count));
      ( "children",
        fun () ->
          Buffer.add_char buf '[';
          let first = ref true in
          List.iter
            (fun c ->
              sep buf first;
              add_span buf c)
            s.Span.children;
          Buffer.add_char buf ']' );
    ]

let add_histogram buf (h : Histogram.snapshot) =
  obj buf
    [
      ( "count",
        fun () -> Buffer.add_string buf (string_of_int h.Histogram.count) );
      ("sum", fun () -> add_float buf h.Histogram.sum);
      ( "buckets",
        fun () ->
          Buffer.add_char buf '[';
          let first = ref true in
          List.iter
            (fun (le, n) ->
              sep buf first;
              obj buf
                [
                  ( "le",
                    fun () ->
                      if Float.is_finite le then add_float buf le
                      else escape buf "inf" );
                  ("count", fun () -> Buffer.add_string buf (string_of_int n));
                ])
            h.Histogram.buckets;
          Buffer.add_char buf ']' );
    ]

let to_json () =
  let counters = Registry.counters () in
  let gauges = Registry.gauges () in
  let histograms = Registry.histograms () in
  let spans = Span.snapshot () in
  let buf = Buffer.create 2048 in
  obj buf
    [
      ("schema", fun () -> escape buf "kregret-obs/v1");
      ( "counters",
        fun () ->
          obj buf
            (List.map
               (fun (name, v) ->
                 (name, fun () -> Buffer.add_string buf (string_of_int v)))
               counters) );
      ( "gauges",
        fun () ->
          obj buf
            (List.map
               (fun (name, v) -> (name, fun () -> add_float buf v))
               gauges) );
      ( "histograms",
        fun () ->
          obj buf
            (List.map
               (fun (name, h) -> (name, fun () -> add_histogram buf h))
               histograms) );
      ( "spans",
        fun () ->
          Buffer.add_char buf '[';
          let first = ref true in
          List.iter
            (fun s ->
              sep buf first;
              add_span buf s)
            spans;
          Buffer.add_char buf ']' );
    ];
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))

let pp_table ppf () =
  let counters = Registry.counters () in
  let gauges = Registry.gauges () in
  let histograms = Registry.histograms () in
  let spans = Span.snapshot () in
  let width =
    List.fold_left
      (fun acc n -> max acc (String.length n))
      24
      (List.map fst counters
      @ List.map fst gauges
      @ List.map fst histograms)
  in
  if counters = [] && gauges = [] && histograms = [] && spans = [] then
    Format.fprintf ppf "observability: no metrics recorded@."
  else begin
    if counters <> [] then begin
      Format.fprintf ppf "counters@.";
      List.iter
        (fun (n, v) -> Format.fprintf ppf "  %-*s %d@." width n v)
        counters
    end;
    if gauges <> [] then begin
      Format.fprintf ppf "gauges@.";
      List.iter
        (fun (n, v) -> Format.fprintf ppf "  %-*s %g@." width n v)
        gauges
    end;
    if histograms <> [] then begin
      Format.fprintf ppf "histograms@.";
      List.iter
        (fun (n, h) ->
          Format.fprintf ppf "  %-*s count=%d sum=%g@." width n
            h.Histogram.count h.Histogram.sum)
        histograms
    end;
    if spans <> [] then begin
      Format.fprintf ppf "spans@.";
      let rec pp_span indent (s : Span.snapshot) =
        Format.fprintf ppf "  %s%-*s %.6fs x%d@." indent
          (max 1 (width - String.length indent))
          s.Span.name s.Span.seconds s.Span.count;
        List.iter (pp_span (indent ^ "  ")) s.Span.children
      in
      List.iter (pp_span "") spans
    end
  end
