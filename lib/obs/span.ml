type snapshot = {
  name : string;
  seconds : float;
  count : int;
  children : snapshot list;
}

type node = {
  name : string;
  mutable seconds : float;
  mutable count : int;
  children : (string, node) Hashtbl.t;
}

let fresh_node name : node =
  { name; seconds = 0.; count = 0; children = Hashtbl.create 4 }

(* One tree for the process, and one stack of open spans per thread, keyed
   by [Thread.id]: the systhreads of a domain would otherwise share a stack,
   and a span would nest under whatever span another thread holds open. A
   thread leaves [stacks] when its stack empties. Both under
   [Control.locked]. *)
let root = fresh_node ""
let stacks : (int, node list) Hashtbl.t = Hashtbl.create 16

let with_ name f =
  if not (Control.enabled ()) then f ()
  else begin
    let id = Thread.id (Thread.self ()) in
    let node =
      Control.locked (fun () ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks id) in
          let parent = match stack with n :: _ -> n | [] -> root in
          let node =
            match Hashtbl.find_opt parent.children name with
            | Some n -> n
            | None ->
                let n = fresh_node name in
                Hashtbl.replace parent.children name n;
                n
          in
          Hashtbl.replace stacks id (node :: stack);
          node)
    in
    let t0 = Control.now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Control.now () -. t0 in
        Control.locked (fun () ->
            node.seconds <- node.seconds +. dt;
            node.count <- node.count + 1;
            match Hashtbl.find_opt stacks id with
            | Some (_ :: (_ :: _ as rest)) -> Hashtbl.replace stacks id rest
            | _ -> Hashtbl.remove stacks id))
      f
  end

let rec freeze (n : node) : snapshot =
  {
    name = n.name;
    seconds = n.seconds;
    count = n.count;
    children =
      Hashtbl.fold (fun _ c acc -> freeze c :: acc) n.children []
      |> List.sort (fun (a : snapshot) (b : snapshot) -> compare a.name b.name);
  }

let snapshot () = Control.locked (fun () -> (freeze root).children)
let reset () = Control.locked (fun () -> Hashtbl.reset root.children)
