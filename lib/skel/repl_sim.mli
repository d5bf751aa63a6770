(** Pipelines with replicated stages — a farm nested inside the pipeline.

    Each stage runs on a {e set} of replica nodes instead of exactly one:
    items reaching the stage are dealt to a replica by the {!dispatch}
    policy, serviced there, and re-sequenced by a per-stage reorder buffer
    before moving downstream, so the next stage still observes the input
    order ([Pipeline1for1] is preserved end to end). Replication is how a
    hot stage stops being the bottleneck without rewriting the application.
    A task farm is the one-stage case: one task replicated over a worker set.

    Release rule. A replica of an interior stage frees its window slot when
    its service ends. A replica of the last stage sends its output straight
    to the user when its service ends, and frees its window slot only when
    that send lands; only the sink re-sequences the outputs, recording each
    completion once every earlier item is out. Sends are buffered
    (asynchronous), unlike the synchronous moves of the single-node
    {!Skel_sim}, so a replica holds several items in flight: up to
    [window] under the least-loaded deal, any number under round-robin.

    Replica sets can change mid-run ({!set_replicas}): the adaptive engines
    use this to evict replicas whose availability collapsed and to re-admit
    them later. Removing a replica never loses items: its in-flight and
    queued items finish where they are; only new deals stop.

    The simulator emits [Service_start], [Service_finish] and [Completion]
    events on the engine bus, guarded by {!Aspipe_obs.Bus.active}: without
    a full-stream sink the run constructs no event payloads at all. *)

type dispatch =
  | Round_robin  (** equal shares in arrival order — eSkel's default deal *)
  | Least_loaded  (** assign to the replica with the fewest outstanding items *)

val pp_dispatch : Format.formatter -> dispatch -> unit

type t

val create :
  ?window:int ->
  ?dispatch:dispatch ->
  ?trace:Aspipe_grid.Trace.t ->
  rng:Aspipe_util.Rng.t ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  replicas:int list array ->
  input:Stream_spec.t ->
  unit ->
  t
(** [replicas.(i)] is stage [i]'s replica node set (non-empty, in range,
    duplicates removed). [dispatch] defaults to [Least_loaded], a
    demand-driven deal: an item is only dealt when some replica has fewer
    than [window] (default 2) items outstanding, so shares end up
    proportional to speed. [Round_robin] deals eagerly and ignores the
    window. [trace], when given, is subscribed to the engine bus as in
    {!Skel_sim.create}. Arrivals are scheduled immediately; nothing runs
    until the engine does. Raises [Invalid_argument] on bad inputs. *)

val replicas : t -> int list array
(** Current replica sets, ascending. *)

val set_replicas : t -> int list array -> unit
(** Replace every stage's replica set; takes effect for future deals (items
    already dealt to a removed replica finish there). Raises
    [Invalid_argument] on bad sets. *)

val outstanding : t -> stage:int -> int -> int
(** [outstanding t ~stage node]: items of [stage] dealt to [node] whose
    window slot is not yet free (see the release rule). *)

val items_total : t -> int
val items_completed : t -> int
(** Items delivered to the user, counted in input order. *)

val finished : t -> bool

val run_to_completion : ?max_time:float -> t -> unit
(** Steps the engine until every item is out; raises [Failure] after
    [max_time] virtual seconds (default [1e7]) or when the event queue
    drains with items in flight. *)

val execute :
  ?rng:Aspipe_util.Rng.t ->
  ?window:int ->
  ?dispatch:dispatch ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  replicas:int list array ->
  input:Stream_spec.t ->
  unit ->
  Aspipe_grid.Trace.t
(** One-shot run; the trace records each service on its replica's node. *)
