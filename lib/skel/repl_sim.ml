module Engine = Aspipe_des.Engine
module Server = Aspipe_des.Server
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link
module Trace = Aspipe_grid.Trace
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event

type dispatch = Round_robin | Least_loaded

let pp_dispatch ppf = function
  | Round_robin -> Format.pp_print_string ppf "round-robin"
  | Least_loaded -> Format.pp_print_string ppf "least-loaded"

(* src_node = -1 encodes the user site. *)
let user_site = -1

type stage_rt = {
  spec : Stage.t;
  mutable replica_set : int list;  (* ascending *)
  outstanding : int array;  (* per topology node *)
  mutable rr_cursor : int;
  arrived : (int * int) Queue.t;  (* (item, src node), in item order *)
  reorder : (int, int) Hashtbl.t;  (* released item -> computing node *)
  mutable next_emit : int;
}

type t = {
  engine : Engine.t;
  bus : Bus.t;
  topo : Topology.t;
  dispatch : dispatch;
  window : int;
  stages : stage_rt array;
  work_table : (int * int, float) Hashtbl.t;
  work_seed : int;
  input : Stream_spec.t;
}

let validate topo stages replicas =
  if Array.length stages = 0 then invalid_arg "Repl_sim: empty pipeline";
  if Array.length replicas <> Array.length stages then
    invalid_arg "Repl_sim: one replica set per stage required";
  Array.map
    (fun nodes ->
      if nodes = [] then invalid_arg "Repl_sim: empty replica set";
      List.iter
        (fun n ->
          if n < 0 || n >= Topology.size topo then invalid_arg "Repl_sim: unknown replica node")
        nodes;
      List.sort_uniq compare nodes)
    replicas

(* Keyed on (item, stage), so replica sets and dispatch orders are compared
   on an identical workload realization. *)
let work_for t ~item ~stage =
  match Hashtbl.find_opt t.work_table (item, stage) with
  | Some w -> w
  | None ->
      let keyed = Rng.create (t.work_seed lxor (item * 0x9E3779) lxor (stage * 0x85EB51)) in
      let w = Float.max 0.0 (Variate.sample keyed t.stages.(stage).spec.Stage.work) in
      Hashtbl.add t.work_table (item, stage) w;
      w

let transfer_from t ~src ~dst ~bytes k =
  if src = user_site then Link.transfer (Topology.user_link t.topo dst) ~bytes k
  else Link.transfer (Topology.link t.topo ~src ~dst) ~bytes k

let is_last t si = si = Array.length t.stages - 1

(* Round-robin deals eagerly (equal shares, the classic deal); least-loaded
   is demand-driven: an item is only dealt when some replica has fewer than
   [window] items outstanding. *)
let pick_replica t s =
  match t.dispatch with
  | Round_robin ->
      let r = List.nth s.replica_set (s.rr_cursor mod List.length s.replica_set) in
      s.rr_cursor <- s.rr_cursor + 1;
      Some r
  | Least_loaded ->
      let best =
        List.fold_left
          (fun best r -> if s.outstanding.(r) < s.outstanding.(best) then r else best)
          (List.hd s.replica_set) (List.tl s.replica_set)
      in
      if s.outstanding.(best) < t.window then Some best else None

let rec pump t si =
  let s = t.stages.(si) in
  if not (Queue.is_empty s.arrived) then begin
    match pick_replica t s with
    | None -> () (* every replica is at its window; a release will re-pump *)
    | Some replica ->
        let item, src = Queue.pop s.arrived in
        s.outstanding.(replica) <- s.outstanding.(replica) + 1;
        let bytes =
          if si = 0 then t.input.Stream_spec.item_bytes
          else t.stages.(si - 1).spec.Stage.output_bytes
        in
        transfer_from t ~src ~dst:replica ~bytes (fun () -> serve t si ~item ~replica);
        pump t si
  end

and serve t si ~item ~replica =
  let s = t.stages.(si) in
  let start = ref (Engine.now t.engine) in
  Server.submit
    (Node.server (Topology.node t.topo replica))
    ~work:(work_for t ~item ~stage:si) ~tag:item
    ~on_start:(fun () ->
      start := Engine.now t.engine;
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Service_start { item; stage = si; node = replica }))
    (fun () ->
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Service_finish { item; stage = si; node = replica; start = !start });
      let release () =
        s.outstanding.(replica) <- s.outstanding.(replica) - 1;
        Hashtbl.replace s.reorder item replica;
        resequence t si;
        pump t si
      in
      (* The release rule: the last stage ships its output to the user at
         once and holds its window slot until the send lands. *)
      if is_last t si then
        Link.transfer (Topology.user_link t.topo replica) ~bytes:s.spec.Stage.output_bytes release
      else release ())

(* Release every contiguous item in input order: an interior stage forwards
   it downstream; the last stage's buffer is the sink, whose items already
   reached the user and complete here. *)
and resequence t si =
  let s = t.stages.(si) in
  match Hashtbl.find_opt s.reorder s.next_emit with
  | None -> ()
  | Some node ->
      let item = s.next_emit in
      Hashtbl.remove s.reorder item;
      s.next_emit <- item + 1;
      if is_last t si then begin
        if Bus.active t.bus then Bus.emit t.bus (Event.Completion { item })
      end
      else begin
        Queue.push (item, node) t.stages.(si + 1).arrived;
        pump t (si + 1)
      end;
      resequence t si

let create ?(window = 2) ?(dispatch = Least_loaded) ?trace ~rng ~topo ~stages ~replicas ~input ()
    =
  if window < 1 then invalid_arg "Repl_sim: window must be at least 1";
  let replica_sets = validate topo stages replicas in
  let engine = Topology.engine topo in
  (match trace with Some trace -> Trace.subscribe trace (Engine.bus engine) | None -> ());
  let t =
    {
      engine;
      bus = Engine.bus engine;
      topo;
      dispatch;
      window;
      stages =
        Array.mapi
          (fun i spec ->
            {
              spec;
              replica_set = replica_sets.(i);
              outstanding = Array.make (Topology.size topo) 0;
              rr_cursor = 0;
              arrived = Queue.create ();
              reorder = Hashtbl.create 32;
              next_emit = 0;
            })
          stages;
      work_table = Hashtbl.create 1024;
      work_seed = Int64.to_int (Rng.bits64 rng) land max_int;
      input;
    }
  in
  let arrivals = Stream_spec.arrival_times input rng in
  Array.iteri
    (fun item time ->
      ignore
        (Engine.schedule_at t.engine ~time (fun () ->
             Queue.push (item, user_site) t.stages.(0).arrived;
             pump t 0)))
    arrivals;
  t

let replicas t = Array.map (fun s -> s.replica_set) t.stages

let set_replicas t new_replicas =
  let sets = validate t.topo (Array.map (fun s -> s.spec) t.stages) new_replicas in
  Array.iteri (fun i s -> s.replica_set <- sets.(i)) t.stages;
  (* Fresh capacity may unblock backlogs immediately. *)
  Array.iteri (fun i _ -> pump t i) t.stages

let outstanding t ~stage node =
  if stage < 0 || stage >= Array.length t.stages || node < 0 || node >= Topology.size t.topo then
    invalid_arg "Repl_sim.outstanding";
  t.stages.(stage).outstanding.(node)

let items_total t = t.input.Stream_spec.items
let items_completed t = t.stages.(Array.length t.stages - 1).next_emit
let finished t = items_completed t = items_total t

let run_to_completion ?(max_time = 1e7) t =
  let rec loop () =
    if finished t then ()
    else if Engine.now t.engine > max_time then
      failwith "Repl_sim.run_to_completion: exceeded max_time before draining"
    else if Engine.step t.engine then loop ()
    else if not (finished t) then
      failwith "Repl_sim.run_to_completion: event queue drained with items in flight"
  in
  loop ()

let execute ?(rng = Rng.create 42) ?window ?dispatch ~topo ~stages ~replicas ~input () =
  let trace = Trace.create () in
  let t = create ?window ?dispatch ~trace ~rng ~topo ~stages ~replicas ~input () in
  run_to_completion t;
  trace
