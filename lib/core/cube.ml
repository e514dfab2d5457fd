module Vector = Kregret_geom.Vector

type result = { order : int list; mrr : float; t_grid : int }

let run ~points ~k () =
  let n = Array.length points in
  if n = 0 then invalid_arg "Cube.run: empty candidate set";
  if k < 1 then invalid_arg "Cube.run: k must be positive";
  let d = Vector.dim points.(0) in
  let in_s = Array.make n false in
  let order = ref [] in
  let size = ref 0 in
  let insert j =
    if (not in_s.(j)) && !size < k then begin
      in_s.(j) <- true;
      order := j :: !order;
      incr size
    end
  in
  List.iter insert (Geo_greedy.boundary_seeds points d);
  (* largest grid resolution whose cell budget fits in the remaining slots *)
  let budget = k - !size in
  let fits t = float_of_int t ** float_of_int (d - 1) <= float_of_int budget in
  let t_grid =
    let rec grow t = if fits (t + 1) then grow (t + 1) else t in
    if budget <= 0 then 0 else grow 1
  in
  if t_grid > 0 then begin
    (* cell key = the clamped grid coordinates of the first d-1 dimensions *)
    let cells : (int list, int) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun j p ->
        let key =
          List.init (d - 1) (fun i ->
              min (t_grid - 1) (int_of_float (p.(i) *. float_of_int t_grid)))
        in
        match Hashtbl.find_opt cells key with
        | Some j' when points.(j').(d - 1) >= p.(d - 1) -> ()
        | _ -> Hashtbl.replace cells key j)
      points;
    let winners = Hashtbl.fold (fun _ j acc -> j :: acc) cells [] in
    List.iter insert (List.sort compare winners)
  end;
  let order = List.rev !order in
  let selected = List.map (fun j -> points.(j)) order in
  let mrr = Mrr.geometric ~data:(Array.to_list points) ~selected in
  { order; mrr; t_grid }
