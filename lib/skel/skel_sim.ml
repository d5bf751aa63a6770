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
module Ring = Aspipe_util.Ring

type dispatch = Round_robin | Least_loaded

let pp_dispatch ppf = function
  | Round_robin -> Format.pp_print_string ppf "round-robin"
  | Least_loaded -> Format.pp_print_string ppf "least-loaded"

(* The node a deal fetches a first-stage item from: the user site. *)
let user_site = -1

(* Items a replica may hold under the least-loaded deal. *)
let window = 2

type stage_state = {
  spec : Stage.t;
  index : int;
  mutable node : int;  (* the stage's node; the lowest replica while dealing *)
  mutable replicas : int list;  (* ascending; meaningful while [dealing] *)
  mutable dealing : bool;
      (* the stage runs the deal rules: it has several replicas, or it shrank
         to one and still has dealt items out *)
  pending : int Ring.t;  (* item ids awaiting this stage, FIFO *)
  waiting_deliveries : (unit -> unit) Ring.t;
      (* deliveries parked because [pending] hit the buffer capacity *)
  mutable busy : bool;  (* serving an item or moving its output; only the latter while dealing *)
  mutable in_service : int option;
      (* the submitted item, until its service finishes; [busy] with
         [in_service = None] means the output move is in flight *)
  mutable migrating_to : int option;  (* destination of an in-flight migration *)
  mutable lost : int list;
      (* items this stage had accepted (per-stage checkpoint) that died in a
         crash and await re-dispatch; unordered *)
  mutable replaying : bool;
      (* a checkpoint replay's bulk transfer is in flight: dispatch is held
         so the replayed items keep their FIFO place ahead of anything that
         queued after the crash *)
  deal : (int * int * bool) Queue.t;
      (* (item, node holding it, whether fetching it is a move from the
         upstream stage) awaiting a deal *)
  outstanding : int array;  (* per topology node: dealt items holding a slot *)
  mutable rr_cursor : int;
  reorder : (int, int * int) Hashtbl.t;  (* seq -> (item, replica), done *)
  mutable next_deal : int;  (* sequence number of the next item dealt *)
  mutable next_release : int;  (* sequence number of the next item released *)
}

type t = {
  engine : Engine.t;
  bus : Bus.t;
  topo : Topology.t;
  rng : Rng.t;
  dispatch : dispatch;
  stages : stage_state array;
  work_seed : int;
  input : Stream_spec.t;
  queue_capacity : int option;  (* per-stage buffer bound; None = unbounded *)
  open_stream : bool;
      (* arrivals are injected by an external driver (the serving layer)
         rather than scheduled from [input] at creation; items_total tracks
         what has actually been injected *)
  arrival_stamps : (int, float) Hashtbl.t;
      (* item -> open-arrival instant, removed at completion; only populated
         in open-stream mode so closed runs keep their exact event stream *)
  on_completion : (item:int -> arrival:float -> unit) option;
  mutable arriving : int;  (* arrivals on the user link to a one-node first stage *)
  held : int Queue.t;  (* later arrivals, kept behind those *)
  mutable injected : int;
  mutable completed : int;
  mutable lost_total : int;
  mutable redispatched_total : int;
}

let check_mapping topo stages mapping =
  if Array.length mapping <> Array.length stages then
    invalid_arg "Skel_sim: mapping length must equal stage count";
  Array.iter
    (fun node ->
      if node < 0 || node >= Topology.size topo then
        invalid_arg "Skel_sim: mapping names an unknown node")
    mapping

(* Work is drawn from a generator keyed on (item, stage) — not on dispatch
   order — so every item costs the same under any placement, buffer capacity
   or adaptation schedule. Comparisons across strategies are therefore paired
   on an identical workload realization, and migrating a stage never re-rolls
   the work its queued items will cost. The same keying makes a re-dispatched
   item cost what its lost first attempt did. The draw is a pure function of
   (item, stage), so it is re-derived rather than kept in a table that would
   grow with every item served. *)
let work_for t ~item ~stage =
  let keyed = Rng.create (t.work_seed lxor (item * 0x9E3779) lxor (stage * 0x85EB51)) in
  Float.max 0.0 (Variate.sample keyed t.stages.(stage).spec.Stage.work)

(* Payload bytes a queued item of stage [si] carries during a move, a
   migration or a checkpoint re-dispatch: the upstream stage's output (or
   the user input for the first stage). *)
let queued_item_bytes t si =
  if si = 0 then t.input.Stream_spec.item_bytes
  else t.stages.(si - 1).spec.Stage.output_bytes

(* The completion bookkeeping of both last-stage kinds: [item]'s output has
   reached the user. The [on_completion] hook fires on every departure, so a
   controller can keep its report without keeping the bus active. *)
let complete t item =
  t.completed <- t.completed + 1;
  if Bus.active t.bus then Bus.emit t.bus (Event.Completion { item });
  if t.open_stream then begin
    match Hashtbl.find_opt t.arrival_stamps item with
    | Some arrival ->
        Hashtbl.remove t.arrival_stamps item;
        if Bus.active t.bus then Bus.emit t.bus (Event.Sojourn { item; arrival });
        (match t.on_completion with Some f -> f ~item ~arrival | None -> ())
    | None -> ()
  end
  else match t.on_completion with Some f -> f ~item ~arrival:nan | None -> ()

(* Round-robin deals eagerly (equal shares, the classic deal); least-loaded
   is demand-driven: an item is only dealt when some replica has fewer than
   [window] items outstanding. *)
let pick_replica t s =
  match t.dispatch with
  | Round_robin ->
      let r = List.nth s.replicas (s.rr_cursor mod List.length s.replicas) in
      s.rr_cursor <- s.rr_cursor + 1;
      Some r
  | Least_loaded ->
      let best =
        List.fold_left
          (fun best r -> if s.outstanding.(r) < s.outstanding.(best) then r else best)
          (List.hd s.replicas) (List.tl s.replicas)
      in
      if s.outstanding.(best) < window then Some best else None

(* A stage widened while moving its output resumes its release here. *)
let rec try_dispatch t si =
  let s = t.stages.(si) in
  if s.dealing then resequence t s
  else if
    (not s.busy) && s.migrating_to = None && (not s.replaying)
    && Node.up (Topology.node t.topo s.node)
    && not (Ring.is_empty s.pending)
  then begin
    let item = Ring.pop s.pending in
    if Bus.active t.bus then
      Bus.emit t.bus (Event.Queue_sample { stage = si; depth = Ring.length s.pending });
    s.busy <- true;
    s.in_service <- Some item;
    (* A buffer slot opened: land one parked delivery. This must happen
       after [busy] is set, or the landed delivery's own dispatch attempt
       would start a second concurrent service on this stage. *)
    if not (Ring.is_empty s.waiting_deliveries) then (Ring.pop s.waiting_deliveries) ();
    (* [next_deal] is the sequence number this item takes if the stage
       gains replicas while it is in service (see [widen]). *)
    serve t s ~item ~node:s.node ~seq:s.next_deal
  end

and serve t s ~item ~node ~seq =
  let start = ref (Engine.now t.engine) in
  Server.submit
    (Node.server (Topology.node t.topo node))
    ~work:(work_for t ~item ~stage:s.index) ~tag:item
    ~on_start:(fun () ->
      start := Engine.now t.engine;
      if Bus.active t.bus then Bus.emit t.bus (Event.Service_start { item; stage = s.index; node }))
    (fun () ->
      s.in_service <- None;
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Service_finish { item; stage = s.index; node; start = !start });
      if s.dealing then replica_done t s ~item ~replica:node ~seq
      else
        (* The output move is part of the stage's cycle — the stage stays
           busy until its output is delivered downstream (synchronous send,
           as in the skeleton's (move).(process).(move) behaviour), so slow
           links throttle the stage that feeds them. *)
        forward t ~item ~from_stage:s.index ~from_node:node ~on_delivered:(fun () ->
            s.busy <- false;
            try_dispatch t s.index))

(* Move [item]'s output on from [from_stage]: to the user, or to the next
   stage. A one-node receiver is paid for here, by the sender; a dealing
   receiver pays itself, at deal time, so the item just joins its deal
   queue. [on_delivered] fires when the sender's part is done. *)
and forward t ~item ~from_stage ~from_node ~on_delivered =
  let bytes = t.stages.(from_stage).spec.Stage.output_bytes in
  if from_stage = Array.length t.stages - 1 then
    (* Output crosses the user link from wherever the last stage ran. *)
    Link.transfer (Topology.user_link t.topo from_node) ~bytes (fun () ->
        complete t item;
        on_delivered ())
  else
    let dst_stage = t.stages.(from_stage + 1) in
    if dst_stage.dealing then enter t dst_stage ~item ~src:from_node ~upstream:true ~on_delivered
    else begin
      let dst_node = dst_stage.node in
      let link = Topology.link t.topo ~src:from_node ~dst:dst_node in
      let start = Engine.now t.engine in
      Link.transfer link ~bytes (fun () ->
          if Bus.active t.bus then
            Bus.emit t.bus
              (Event.Transfer { item; from_stage; src = from_node; dst = dst_node; start; bytes });
          land_delivery t dst_stage (fun () ->
              enter t dst_stage ~item ~src:dst_node ~upstream:false ~on_delivered))
    end

(* [item] reaches stage [s] from node [src]: a dealing stage queues it for
   a deal; a one-node stage, whose sender already moved it, queues it for
   service. *)
and enter t s ~item ~src ~upstream ~on_delivered =
  if s.dealing then begin
    Queue.push (item, src, upstream) s.deal;
    on_delivered ();
    pump t s
  end
  else begin
    Ring.push s.pending item;
    if Bus.active t.bus then
      Bus.emit t.bus (Event.Queue_sample { stage = s.index; depth = Ring.length s.pending });
    on_delivered ();
    try_dispatch t s.index
  end

(* Apply the buffer bound: a delivery to a full stage parks (holding its
   upstream sender busy — that is the back pressure) until a slot opens. *)
and land_delivery t dst deliver =
  match t.queue_capacity with
  | Some capacity when Ring.length dst.pending >= capacity ->
      Ring.push dst.waiting_deliveries deliver
  | Some _ | None -> deliver ()

(* Deal queued items while the deal allows: the chosen replica fetches each
   from the node holding it, then serves it. *)
and pump t s =
  if List.tl s.replicas <> [] && not (Queue.is_empty s.deal) then begin
    match pick_replica t s with
    | None -> () (* every replica is at its window; a release will re-pump *)
    | Some replica ->
        let item, src, upstream = Queue.pop s.deal in
        let seq = s.next_deal in
        s.next_deal <- seq + 1;
        s.outstanding.(replica) <- s.outstanding.(replica) + 1;
        let bytes = queued_item_bytes t s.index in
        let start = Engine.now t.engine in
        let arrived () =
          if upstream && Bus.active t.bus then
            Bus.emit t.bus
              (Event.Transfer { item; from_stage = s.index - 1; src; dst = replica; start; bytes });
          serve t s ~item ~node:replica ~seq
        in
        if src = user_site then Link.transfer (Topology.user_link t.topo replica) ~bytes arrived
        else Link.transfer (Topology.link t.topo ~src ~dst:replica) ~bytes arrived;
        pump t s
  end

(* The release rule: an interior replica frees its slot when its service
   ends; a last-stage replica sends its output to the user at once and
   frees its slot when the send lands. Either way the item then waits in
   the reorder buffer for its turn. *)
and replica_done t s ~item ~replica ~seq =
  let release () =
    s.outstanding.(replica) <- s.outstanding.(replica) - 1;
    Hashtbl.replace s.reorder seq (item, replica);
    resequence t s;
    pump t s
  in
  if s.index = Array.length t.stages - 1 then
    Link.transfer (Topology.user_link t.topo replica) ~bytes:s.spec.Stage.output_bytes release
  else release ()

(* Release every contiguous item in deal order. The last stage's items
   already reached the user and complete here; an interior stage forwards
   each from its replica, one move at a time ([busy]), since moves over
   unequal links could land out of order. *)
and resequence t s =
  if not s.busy then
    match Hashtbl.find_opt s.reorder s.next_release with
    | None -> settle t s
    | Some (item, node) ->
        Hashtbl.remove s.reorder s.next_release;
        s.next_release <- s.next_release + 1;
        if s.index = Array.length t.stages - 1 then (complete t item; resequence t s)
        else begin
          s.busy <- true;
          forward t ~item ~from_stage:s.index ~from_node:node ~on_delivered:(fun () ->
              s.busy <- false;
              resequence t s)
        end

(* A dealing stage shrunk to one replica stops dealing; once nothing it
   dealt is out or (see [resequence]) moving, it adopts the one-node rules,
   and the items that queued meanwhile are fetched to its node ahead of
   later arrivals. *)
and settle t s =
  match s.replicas with
  | [ node ] when s.dealing && Array.for_all (fun n -> n = 0) s.outstanding ->
      s.dealing <- false;
      s.node <- node;
      let items = List.rev (Queue.fold (fun acc (item, _, _) -> item :: acc) [] s.deal) in
      Queue.clear s.deal;
      if items <> [] then fetch t s items ~landed:ignore
  | _ -> ()

(* Fetch [items] to one-node stage [s] in one bulk transfer from upstream
   (the user site for the first stage). Dispatch is held meanwhile; on
   landing they go ahead of everything queued since, in the given order. *)
and fetch t s items ~landed =
  let si = s.index in
  let link =
    if si = 0 then Topology.user_link t.topo s.node
    else Topology.link t.topo ~src:t.stages.(si - 1).node ~dst:s.node
  in
  s.replaying <- true;
  Link.transfer link
    ~bytes:(Float.of_int (List.length items) *. queued_item_bytes t si)
    (fun () ->
      s.replaying <- false;
      List.iter (fun item -> Ring.push_front s.pending item) (List.rev items);
      List.iter landed items;
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Queue_sample { stage = si; depth = Ring.length s.pending });
      try_dispatch t si)

(* An arrival crosses the user link to a one-node first stage; a replica
   of a replicated one fetches it at deal time. Arrivals are held while
   earlier ones are on that link, so a widened stage deals them in order. *)
let rec arrive t ~item =
  let first = t.stages.(0) in
  if t.arriving > 0 && (first.dealing || not (Queue.is_empty t.held)) then Queue.push item t.held
  else if first.dealing then enter t first ~item ~src:user_site ~upstream:false ~on_delivered:ignore
  else begin
    t.arriving <- t.arriving + 1;
    Link.transfer (Topology.user_link t.topo first.node) ~bytes:t.input.Stream_spec.item_bytes
      (fun () ->
        t.arriving <- t.arriving - 1;
        land_delivery t first (fun () ->
            enter t first ~item ~src:first.node ~upstream:false ~on_delivered:ignore);
        while t.arriving = 0 && not (Queue.is_empty t.held) do
          arrive t ~item:(Queue.take t.held)
        done)
  end

(* --- fault semantics ------------------------------------------------- *)

(* Land parked deliveries while buffer room remains. The dispatch path lands
   one per popped item; this covers the crash path, where draining [pending]
   frees slots without any dispatch happening. *)
let rec refill t s =
  if not (Ring.is_empty s.waiting_deliveries) then begin
    match t.queue_capacity with
    | Some capacity when Ring.length s.pending >= capacity -> ()
    | Some _ | None ->
        (Ring.pop s.waiting_deliveries) ();
        refill t s
  end

(* A crash takes down every one-node stage resident on the node: the
   in-service item and all queued inputs are gone (fail-stop — no output
   escapes), recorded per stage so the checkpoint-based re-dispatch can
   replay exactly them. The queued inputs of a stage already mid-migration
   survive — their bytes are part of the migration transfer in flight on
   the network, not on the dying node — but its in-service item still
   executes locally and dies. An output move already handed to the network
   also survives — the send happened. Items dealt to a crashed replica are
   not checkpointed: they stall the run, and the stall report shows them as
   the replica's outstanding count. *)
let on_crash t node =
  Array.iter
    (fun s ->
      if s.node = node && not s.dealing then begin
        let lose item =
          s.lost <- item :: s.lost;
          t.lost_total <- t.lost_total + 1;
          if Bus.active t.bus then Bus.emit t.bus (Event.Item_lost { item; stage = s.index; node })
        in
        (match s.in_service with
        | Some item ->
            s.in_service <- None;
            s.busy <- false;
            lose item
        | None -> ());
        if s.migrating_to = None && not (Ring.is_empty s.pending) then begin
          Ring.iter s.pending lose;
          Ring.clear s.pending;
          if Bus.active t.bus then
            Bus.emit t.bus (Event.Queue_sample { stage = s.index; depth = 0 });
          refill t s
        end
      end)
    t.stages;
  ignore (Server.drop_all (Node.server (Topology.node t.topo node)))

(* Re-dispatch a stage's lost items from the per-stage checkpoint: their
   payloads are re-fetched from the upstream stage (the user site for stage
   0) in one bulk transfer, then prepended to the pending queue. Prepending
   preserves the pipeline's FIFO order: each single-server stage emits in
   item order, so everything downstream of the crash point carries smaller
   ids than every lost item, and anything that landed in [pending] after the
   crash carries larger ids. *)
let restore_stage t si =
  let s = t.stages.(si) in
  (* Only replay onto a live node; a dead destination keeps the checkpoint
     until a later recovery or failover finds the stage a live home. *)
  if s.lost <> [] && Node.up (Topology.node t.topo s.node) then begin
    let items = List.sort compare s.lost in
    s.lost <- [];
    fetch t s items ~landed:(fun item ->
        t.redispatched_total <- t.redispatched_total + 1;
        if Bus.active t.bus then
          Bus.emit t.bus (Event.Item_redispatched { item; stage = si; node = s.node }))
  end

(* Naive same-node recovery: when a node rejoins, each one-node stage still
   mapped to it replays its lost items where it stands. *)
let on_recover t node =
  Array.iteri
    (fun si s ->
      if s.node = node && s.migrating_to = None && not s.dealing then begin
        restore_stage t si;
        try_dispatch t si
      end)
    t.stages

let create ?queue_capacity ?trace ?(arrivals = `From_input) ?on_completion
    ?(dispatch = Least_loaded) ~rng ~topo ~stages ~mapping ~input () =
  check_mapping topo stages mapping;
  if Array.length stages = 0 then invalid_arg "Skel_sim: empty pipeline";
  (match queue_capacity with
  | Some c when c < 1 -> invalid_arg "Skel_sim: queue capacity must be at least 1"
  | Some _ | None -> ());
  let engine = Topology.engine topo in
  (* The simulator emits structured events on the engine's bus; the caller's
     trace (when given) is subscribed as one sink among any others (JSONL,
     Perfetto, metrics) attached before or during the run. Without any such
     full-stream sink the bus stays inactive and the guarded hot emits
     construct no payloads at all. *)
  (match trace with Some trace -> Trace.subscribe trace (Engine.bus engine) | None -> ());
  let t =
    {
      engine;
      bus = Engine.bus engine;
      topo;
      rng;
      dispatch;
      stages =
        Array.mapi
          (fun index spec ->
            {
              spec;
              index;
              node = mapping.(index);
              replicas = [ mapping.(index) ];
              dealing = false;
              pending = Ring.create ~dummy:0;
              waiting_deliveries = Ring.create ~dummy:(fun () -> ());
              busy = false;
              in_service = None;
              migrating_to = None;
              lost = [];
              replaying = false;
              deal = Queue.create ();
              outstanding = Array.make (Topology.size topo) 0;
              rr_cursor = 0;
              reorder = Hashtbl.create 16;
              next_deal = 0;
              next_release = 0;
            })
          stages;
      work_seed = Int64.to_int (Rng.bits64 rng) land max_int;
      input;
      queue_capacity;
      open_stream = (arrivals = `External);
      arrival_stamps = Hashtbl.create (if arrivals = `External then 1024 else 1);
      on_completion;
      arriving = 0;
      held = Queue.create ();
      injected = (if arrivals = `External then 0 else input.Stream_spec.items);
      completed = 0;
      lost_total = 0;
      redispatched_total = 0;
    }
  in
  (* React to fault events already ordered on the bus: the crash/recovery
     event precedes the item-loss / re-dispatch events it causes. Control
     interest: the fault handler must work on a trace-less bus without
     keeping the per-item hot emits alive. *)
  ignore
    (Bus.subscribe ~interest:Control t.bus (fun (event : Event.t) ->
         match event.Event.payload with
         | Event.Node_crashed { node } -> on_crash t node
         | Event.Node_recovered { node } -> on_recover t node
         | _ -> ()));
  (match arrivals with
  | `External -> ()
  | `From_input ->
      let times = Stream_spec.arrival_times input rng in
      Array.iteri
        (fun item time -> ignore (Engine.schedule_at engine ~time (fun () -> arrive t ~item)))
        times);
  t

(* Open-arrival entry point: the serving layer calls this from its own
   arrival events. The stamp is taken before the user-link transfer starts,
   so the recorded sojourn covers the full user-visible residence. *)
let inject t ~item =
  if not t.open_stream then
    invalid_arg "Skel_sim.inject: simulator was created with ~arrivals:`From_input";
  Hashtbl.replace t.arrival_stamps item (Engine.now t.engine);
  t.injected <- t.injected + 1;
  arrive t ~item

let mapping t = Array.map (fun s -> s.node) t.stages
let replicas t = Array.map (fun s -> if s.dealing then s.replicas else [ s.node ]) t.stages

(* Start moving one-node stage [s] to [dst]: its state and queued item
   payloads cross the old→new link, then it resumes there. Returns the
   bytes in flight. *)
let migrate t s dst =
  let queued = Float.of_int (Ring.length s.pending) *. queued_item_bytes t s.index in
  let bytes = s.spec.Stage.state_bytes +. queued in
  s.migrating_to <- Some dst;
  Link.transfer (Topology.link t.topo ~src:s.node ~dst) ~bytes (fun () ->
      s.node <- dst;
      s.migrating_to <- None;
      (* Landing on a live node replays any checkpointed losses. *)
      restore_stage t s.index;
      try_dispatch t s.index);
  bytes

let check_moves t ~caller new_mapping =
  check_mapping t.topo (Array.map (fun s -> s.spec) t.stages) new_mapping;
  Array.iter
    (fun s ->
      let dst = new_mapping.(s.index) in
      if s.dealing && dst <> s.node then invalid_arg (caller ^ ": stage has several replicas");
      if s.migrating_to <> None && s.migrating_to <> Some dst then
        invalid_arg (caller ^ ": stage already migrating"))
    t.stages

let remap t new_mapping =
  check_moves t ~caller:"Skel_sim.remap" new_mapping;
  Array.fold_left
    (fun total s ->
      let dst = new_mapping.(s.index) in
      if dst <> s.node && s.migrating_to = None then total +. migrate t s dst else total)
    0.0 t.stages

let failover t new_mapping =
  check_moves t ~caller:"Skel_sim.failover" new_mapping;
  Array.iter
    (fun s ->
      let dst = new_mapping.(s.index) in
      if dst <> s.node && s.migrating_to = None then begin
        if Node.up (Topology.node t.topo s.node) then
          (* Live source: an ordinary state migration. *)
          ignore (migrate t s dst)
        else begin
          (* Dead source: there is no state to fetch from the corpse. The
             stage is re-instantiated at [dst] immediately and its lost
             items are re-dispatched from the checkpoint (their payloads
             re-fetched from upstream by [restore_stage]). *)
          s.node <- dst;
          if Bus.active t.bus then
            Bus.emit t.bus
              (Event.Queue_sample { stage = s.index; depth = Ring.length s.pending });
          restore_stage t s.index;
          try_dispatch t s.index
        end
      end
      else if dst = s.node && Node.up (Topology.node t.topo s.node) then begin
        restore_stage t s.index;
        try_dispatch t s.index
      end)
    t.stages

(* One-node stage [s] gains replicas: from now on it deals. Its queued
   items sit at its node, where a replica fetches them; parked deliveries
   land in the deal queue behind them. An item in service there is the
   first to release: it keeps the sequence number it was dispatched with
   and holds a slot on its node. An output move in flight keeps [busy] set
   until it lands, so no release overtakes it. *)
let widen t s =
  s.dealing <- true;
  if s.in_service <> None then begin
    s.busy <- false;
    s.outstanding.(s.node) <- s.outstanding.(s.node) + 1;
    s.next_deal <- s.next_deal + 1
  end;
  if not (Ring.is_empty s.pending) then begin
    Ring.iter s.pending (fun item -> Queue.push (item, s.node, false) s.deal);
    Ring.clear s.pending;
    if Bus.active t.bus then Bus.emit t.bus (Event.Queue_sample { stage = s.index; depth = 0 })
  end;
  Ring.iter s.waiting_deliveries (fun deliver -> deliver ());
  Ring.clear s.waiting_deliveries

let can_reshape s = s.migrating_to = None && (not s.replaying) && s.lost = []

let set_replicas t sets =
  if Array.length sets <> Array.length t.stages then
    invalid_arg "Skel_sim: one replica set per stage required";
  let sets =
    Array.map
      (fun nodes ->
        if nodes = [] then invalid_arg "Skel_sim: empty replica set";
        if List.exists (fun n -> n < 0 || n >= Topology.size t.topo) nodes then
          invalid_arg "Skel_sim: unknown replica node";
        List.sort_uniq compare nodes)
      sets
  in
  Array.iter
    (fun s ->
      match sets.(s.index) with
      | [ dst ] when not s.dealing ->
          (* A one-node stage that stays one-node migrates. *)
          if s.migrating_to <> None && s.migrating_to <> Some dst then
            invalid_arg "Skel_sim.set_replicas: stage already migrating";
          if s.migrating_to = None && dst <> s.node then ignore (migrate t s dst)
      | set ->
          if not (can_reshape s) then
            invalid_arg "Skel_sim.set_replicas: stage is migrating or recovering";
          s.replicas <- set;
          if not s.dealing then widen t s;
          s.node <- List.hd set)
    t.stages;
  (* Fresh capacity may unblock backlogs immediately; a shrunk, idle stage
     takes the one-node rules at once. *)
  Array.iter
    (fun s ->
      pump t s;
      resequence t s)
    t.stages

let outstanding t ~stage node =
  if stage < 0 || stage >= Array.length t.stages || node < 0 || node >= Topology.size t.topo then
    invalid_arg "Skel_sim.outstanding";
  t.stages.(stage).outstanding.(node)

let migrating t = Array.exists (fun s -> s.migrating_to <> None) t.stages

let reshapable t = Array.for_all can_reshape t.stages

let items_total t = if t.open_stream then t.injected else t.input.Stream_spec.items
let items_injected t = t.injected
let items_completed t = t.completed
let finished t = t.completed = items_total t

let lost_items t = List.sort compare (Array.fold_left (fun acc s -> s.lost @ acc) [] t.stages)

let items_lost_total t = t.lost_total
let items_redispatched_total t = t.redispatched_total

(* The stall watchdog's report: which stage holds what, where, and whether a
   dead node explains the stall — so a fault-induced DNF reads differently
   from a modelling bug. *)
let describe_stall t reason =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Skel_sim: %s at t=%.2f with %d/%d items completed" reason
       (Engine.now t.engine) t.completed (items_total t));
  let dead_holds = ref false in
  let up node =
    let up = Node.up (Topology.node t.topo node) in
    if not up then dead_holds := true;
    up
  in
  Array.iter
    (fun s ->
      if s.dealing then
        Buffer.add_string b
          (Printf.sprintf
             "\n  stage %d (%s) on replicas {%s}: outstanding %s, %d awaiting a deal, %d in the \
              reorder buffer"
             s.index s.spec.Stage.name
             (String.concat "," (List.map string_of_int s.replicas))
             (String.concat " "
                (List.map
                   (fun n ->
                     Printf.sprintf "%d:%d%s" n s.outstanding.(n) (if up n then "" else " [DOWN]"))
                   s.replicas))
             (Queue.length s.deal) (Hashtbl.length s.reorder))
      else
        Buffer.add_string b
          (Printf.sprintf "\n  stage %d (%s) on node %d [%s]: %s%s, %d queued, %d parked, %d lost"
             s.index s.spec.Stage.name s.node
             (if up s.node then "up" else "DOWN")
             (if s.busy then
                match s.in_service with
                | Some item -> Printf.sprintf "serving item %d" item
                | None -> "busy (output move in flight)"
              else "idle")
             (match s.migrating_to with
             | Some d -> Printf.sprintf ", migrating to node %d" d
             | None -> "")
             (Ring.length s.pending)
             (Ring.length s.waiting_deliveries)
             (List.length s.lost)))
    t.stages;
  if !dead_holds then
    Buffer.add_string b
      "\n  a DOWN node holds a stage: fault-induced stall (DNF) — recovery or failover is \
       required to finish, this is not a modelling bug";
  Buffer.contents b

let run ?(max_time = 1e7) t =
  let rec loop () =
    if finished t then `Completed
    else if Engine.now t.engine > max_time then
      `Stalled (describe_stall t "exceeded max_time before draining")
    else if Engine.step t.engine then loop ()
    else if finished t then `Completed
    else `Stalled (describe_stall t "event queue drained with items in flight")
  in
  loop ()

let run_to_completion ?max_time t =
  match run ?max_time t with `Completed -> () | `Stalled message -> failwith message

let execute ?(rng = Rng.create 42) ?queue_capacity ~topo ~stages ~mapping ~input () =
  let trace = Trace.create () in
  let t = create ?queue_capacity ~trace ~rng ~topo ~stages ~mapping ~input () in
  run_to_completion t;
  trace
