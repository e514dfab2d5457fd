type basis = {
  ids : int array;
  rows : Kregret_geom.Vector.t array;
  candidates : int array;
}

type t = {
  epoch : int;
  live : int;
  n_sky : int;
  n_happy : int option;
  order : int array;
  mrr : float array;
  basis_version : int;
  basis : unit -> basis;
}

let prefix stored ~ids =
  match stored with
  | None -> ([||], [||])
  | Some s ->
      ( Array.of_list (List.map (fun i -> ids.(i)) (Stored_list.order s)),
        Array.init (Stored_list.length s) (fun i ->
            Stored_list.mrr_at s ~k:(i + 1)) )

let query s ~k =
  if k < 1 then invalid_arg "Snapshot.query: k must be positive";
  let len = Array.length s.order in
  if len = 0 then ([], 0.)
  else
    let take = min k len in
    (Array.to_list (Array.sub s.order 0 take), s.mrr.(take - 1))
