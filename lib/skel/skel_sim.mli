(** The simulation backend of the pipeline skeleton.

    Runs an [Ns]-stage [Pipeline1for1] over a {!Aspipe_grid.Topology.t} under
    a placement of stages on nodes, producing a {!Aspipe_grid.Trace.t}. Each
    stage owns a {e replica set}: one node, or several ({!set_replicas}) — a
    farm nested inside the pipeline, and a task farm when the pipeline has
    one stage. The set's size selects the stage's rules.

    A one-node stage:
    - serves one item at a time, in order; colocated stages share their
      node's FCFS server;
    - runs the cycle [(move in).(process).(move out)]: the output move is
      synchronous, so the stage cannot start its next item until the
      downstream transfer is delivered — slow links throttle the stages that
      feed them, as in the skeleton's performance model;
    - migrates under {!remap}: the stage blocks, its state (plus queued item
      payloads) crosses the old→new link, then it resumes at the new node.
      An in-flight service finishes on the old node.

    A stage with several replicas deals each arriving item to a replica by
    the {!dispatch} policy and re-sequences the finished items through a
    reorder buffer, so the next stage still observes the arrival order.
    The release rule: an interior replica frees its slot when its service
    ends; a last-stage replica sends its output straight to the user when
    its service ends and frees its slot when that send lands, after which
    the item completes in order. A replica holds up to 2 items under the
    least-loaded deal, any number under round-robin.

    Who pays for the move between two stages is decided by the receiver:
    - a one-node receiver: the sender moves the item. A one-node sender
      holds its server until the move lands. A replicated stage sends each
      released item from the replica that served it and holds its release
      until that move lands, so items sent over unequal links still arrive
      in order; its replicas keep serving meanwhile;
    - a replicated receiver: the replica it deals the item to pays the
      move, at deal time.
    Items enter from the user site the same way: over the user link to a
    one-node first stage, or fetched from it by the first stage's replica.

    Fault semantics (driven by {!Aspipe_grid.Node.set_up} transitions, which
    the simulator observes through the engine bus) cover one-node stages:

    - a {e crash} loses exactly the items in service and queued at the
      node's stages (fail-stop): they are recorded in a per-stage
      checkpoint (the set of accepted-but-unfinished item ids) and an
      {!Aspipe_obs.Event.Item_lost} is emitted per item. Outputs already
      handed to the network, state mid-migration, and queued inputs of a
      mid-migration stage survive — their bytes are in flight, not on the
      dying node;
    - a {e recovery} replays each resident stage's checkpoint in place:
      lost payloads are re-fetched from upstream in one bulk transfer and
      re-enter the pending queue ahead of later arrivals, preserving the
      pipeline's FIFO order ({!Aspipe_obs.Event.Item_redispatched} each);
    - {!failover} re-maps stages away from dead nodes without touching the
      corpse: the stage is re-instantiated at its new node and its
      checkpoint replayed there.

    Items dealt to a replica whose node crashes are not checkpointed: the
    run stalls, and {!run}'s report names the replica set holding them.

    The executor never looks at ground-truth availability — only the
    simulated clock — so adaptive policies on top of it are honestly
    evaluated against imperfect information. *)

type dispatch =
  | Round_robin  (** equal shares in arrival order — eSkel's default deal *)
  | Least_loaded  (** assign to the replica with the fewest outstanding items *)

val pp_dispatch : Format.formatter -> dispatch -> unit

type t

val create :
  ?queue_capacity:int ->
  ?trace:Aspipe_grid.Trace.t ->
  ?arrivals:[ `From_input | `External ] ->
  ?on_completion:(item:int -> arrival:float -> unit) ->
  ?dispatch:dispatch ->
  rng:Aspipe_util.Rng.t ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  mapping:int array ->
  input:Stream_spec.t ->
  unit ->
  t
(** Schedules all arrivals; nothing runs until the engine does.
    [queue_capacity] bounds every one-node stage's input buffer (default
    unbounded; a replicated stage's deal queue is unbounded):
    a delivery to a full stage parks, holding the upstream sender busy —
    with capacity 1 the pipeline approaches the bufferless synchronization
    of the CTMC model. [trace], when given, is subscribed to the engine bus
    as a full-stream sink and so records the full run: every service,
    transfer, completion and sojourn. Without it (or any other such sink)
    the run is unobserved and the hot path emits no event payloads at all;
    the adaptive and serving controllers run this way and keep their
    report from [on_completion].

    [arrivals] selects the stream model. The default, [`From_input],
    schedules the closed stream described by [input] up front, exactly as
    before. [`External] opens the stream: [input]'s arrival spec and item
    count are ignored, items enter only through {!inject} (typically from a
    lazily self-rescheduling {e arrival process} living on the same
    engine), every injected item is stamped with its arrival instant, and
    each departure emits an {!Aspipe_obs.Event.Sojourn} carrying that stamp
    — latency becomes a first-class output.

    [on_completion] fires once at every departure, after its emits, on
    either stream model: [arrival] is the item's open-arrival stamp, and
    [nan] on a closed stream. It lets a controller record completions and
    account SLO windows without a full-stream bus subscription.

    [mapping] places each stage on one node; {!set_replicas} replicates
    stages. [dispatch] (default [Least_loaded]) is the deal of every
    replicated stage: [Least_loaded] deals an item only when some replica
    has fewer than 2 items outstanding, so shares end up proportional to
    speed; [Round_robin] deals eagerly in equal shares.

    Raises [Invalid_argument] if the mapping length differs from the stage
    count, names an unknown node, or the capacity is below 1. *)

val inject : t -> item:int -> unit
(** Open-stream arrival: stamps [item] with the current virtual time and
    hands it to the first stage (crossing the user link like any other
    arrival). Only valid on a simulator created with [~arrivals:`External]
    — raises [Invalid_argument] on a closed-stream simulator, whose
    arrivals were already scheduled by {!create}. *)

val items_injected : t -> int
(** Arrivals accepted so far via {!inject} (0 on closed streams, where
    {!items_total} counts the input spec instead). *)

val mapping : t -> int array
(** Current stage→node assignment (updated by completed migrations); a
    replicated stage reports its lowest replica. *)

val replicas : t -> int list array
(** Current replica sets, ascending; [[node]] for a one-node stage. *)

val set_replicas : t -> int list array -> unit
(** Replace every stage's replica set, in either direction, without losing
    an item or breaking the order:
    - a one-node stage given another single node migrates there, as under
      {!remap};
    - a one-node stage given several nodes starts dealing at once: its
      queued items are dealt from its node, and an item in service there
      finishes and releases first. An output move already in flight lands
      before any release, and arrivals on their way to its node are dealt
      before later ones;
    - a replicated stage's new set takes effect for future deals; items
      already dealt to a removed replica finish there. Shrunk to one node,
      the stage stops dealing; once nothing it dealt is still out or on
      its way downstream it takes the one-node rules, and the items that
      queued meanwhile are fetched to its node from upstream in one bulk
      transfer.

    Raises [Invalid_argument] on a missing, empty or out-of-range set, or
    when it would change the set of a stage that is migrating, fetching a
    replay or a drain, or has lost items to replay — never while
    {!reshapable} holds. *)

val reshapable : t -> bool
(** No stage is migrating, fetching a replay or a drain, or holding lost
    items: {!set_replicas} accepts any valid sets. A controller waits for
    this, as it waits on {!migrating} before a {!remap}. *)

val outstanding : t -> stage:int -> int -> int
(** [outstanding t ~stage node]: items of a replicated [stage] dealt to
    [node] whose slot is not yet free (see the release rule). *)

val remap : t -> int array -> float
(** [remap t m] starts migrating every stage whose assignment changes and
    returns the total bytes in flight. Items already being serviced finish
    where they are. Re-entrant migrations to a stage already moving, and
    moves of a replicated stage, are rejected with [Invalid_argument]. *)

val failover : t -> int array -> unit
(** [failover t m] re-maps stages like {!remap}, but tolerates dead source
    nodes: a stage whose node is down is re-instantiated at its new node
    immediately (no state crosses a link out of the corpse) and its lost
    items are re-dispatched from the per-stage checkpoint. Stages moving
    between live nodes migrate normally; stages staying put on a live node
    replay any checkpointed losses. Raises [Invalid_argument] like
    {!remap}. *)

val migrating : t -> bool

val items_total : t -> int
val items_completed : t -> int
val finished : t -> bool

val lost_items : t -> int list
(** Item ids currently checkpointed as lost and awaiting re-dispatch,
    ascending. Empty in fault-free runs and after every loss has been
    replayed. *)

val items_lost_total : t -> int
(** Cumulative count of item-loss events (an item lost twice counts
    twice). *)

val items_redispatched_total : t -> int

val run : ?max_time:float -> t -> [ `Completed | `Stalled of string ]
(** Steps the engine until every item has left the pipeline, [max_time]
    virtual seconds elapse (default [1e7]), or the event queue drains with
    items still in flight. The [`Stalled] diagnostic names each one-node
    stage, its node and liveness, what it is doing, and its
    queue/parked/lost depths; each replicated stage, its replica set with
    per-replica outstanding counts and liveness, its deal-queue length and
    its reorder-buffer size. It says explicitly when a DOWN node holding a
    stage makes the stall a fault-induced DNF rather than a modelling bug. *)

val run_to_completion : ?max_time:float -> t -> unit
(** {!run}, raising [Failure] with the stall diagnostic on [`Stalled] —
    for callers that treat a non-draining workload as a bug. *)

val execute :
  ?rng:Aspipe_util.Rng.t ->
  ?queue_capacity:int ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  mapping:int array ->
  input:Stream_spec.t ->
  unit ->
  Aspipe_grid.Trace.t
(** One-shot static run: create, drain, return the trace. *)
