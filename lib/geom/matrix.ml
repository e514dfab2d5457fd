type t = float array array

let make rows cols x = Array.init rows (fun _ -> Array.make cols x)
let init rows cols f = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

(* Forward elimination with partial pivoting. Returns the number of pivots
   found; [m] is destroyed. *)
let eliminate ~eps m =
  let r = Array.length m and c = Array.length m.(0) in
  let pivot_row = ref 0 in
  let col = ref 0 in
  while !pivot_row < r && !col < c do
    (* pick the row with the largest absolute entry in the current column *)
    let best = ref !pivot_row in
    for i = !pivot_row + 1 to r - 1 do
      if abs_float m.(i).(!col) > abs_float m.(!best).(!col) then best := i
    done;
    if abs_float m.(!best).(!col) <= eps then incr col
    else begin
      let tmp = m.(!pivot_row) in
      m.(!pivot_row) <- m.(!best);
      m.(!best) <- tmp;
      let pr = m.(!pivot_row) in
      for i = !pivot_row + 1 to r - 1 do
        let factor = m.(i).(!col) /. pr.(!col) in
        if factor <> 0. then
          for j = !col to c - 1 do
            m.(i).(j) <- m.(i).(j) -. (factor *. pr.(j))
          done
      done;
      incr pivot_row;
      incr col
    end
  done;
  !pivot_row

let rank ?(eps = 1e-9) m =
  if Array.length m = 0 then 0 else eliminate ~eps (Array.map Array.copy m)
