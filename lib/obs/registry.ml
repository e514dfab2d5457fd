type metric =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

(* under Control.locked *)
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let intern name make classify describe =
  Control.locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Kregret_obs.Registry: %S already interned as a different \
                    metric type (wanted %s)"
                   name describe))
      | None ->
          let v, m = make () in
          Hashtbl.replace table name m;
          v)

let counter ?(help = "") name =
  intern name
    (fun () ->
      let c = Counter.make ~name ~help in
      (c, C c))
    (function C c -> Some c | _ -> None)
    "counter"

let gauge ?(help = "") name =
  intern name
    (fun () ->
      let g = Gauge.make ~name ~help in
      (g, G g))
    (function G g -> Some g | _ -> None)
    "gauge"

let histogram ?(help = "") ?buckets name =
  intern name
    (fun () ->
      let h = Histogram.make ?buckets ~name ~help () in
      (h, H h))
    (function H h -> Some h | _ -> None)
    "histogram"

(* collect under the lock, then query each metric with the lock released
   (Counter.value etc. lock internally; the registry mutex is not
   reentrant) *)
let all () =
  Control.locked (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) table [])

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counters () =
  List.filter_map
    (function
      | C c when Counter.touched c -> (
          (* a reset leaves zeroed cells behind: report only counters that
             actually accumulated, so a disabled run exports nothing *)
          match Counter.value c with
          | 0 -> None
          | v -> Some (Counter.name c, v))
      | _ -> None)
    (all ())
  |> by_name

let gauges () =
  List.filter_map
    (function
      | G g when Gauge.touched g -> Some (Gauge.name g, Gauge.value g)
      | _ -> None)
    (all ())
  |> by_name

let histograms () =
  List.filter_map
    (function
      | H h when Histogram.touched h -> (
          match Histogram.snapshot h with
          | { count = 0; _ } -> None
          | s -> Some (Histogram.name h, s))
      | _ -> None)
    (all ())
  |> by_name

let reset () =
  List.iter
    (function
      | C c -> Counter.reset c
      | G g -> Gauge.reset g
      | H h -> Histogram.reset h)
    (all ());
  Span.reset ()
