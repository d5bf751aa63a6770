(** Performance model of pipelines with replicated stages ({!Aspipe_skel.Skel_sim}).

    A node serving assignments from several stages splits its rate equally
    among them. Under the demand-driven [Least_loaded] deal (the default)
    work flows proportionally, so a stage's capacity is the sum of its
    replicas' shares divided by its work. Under the [Round_robin] deal every
    replica receives an equal share of the stream, so the stage saturates
    when its {e slowest} replica does: |set| × the slowest share. With
    asynchronous sends, steady throughput is the minimum stage capacity.
    A task farm is the one-stage case. *)

val node_share : replicas:int list array -> processors:int -> int array
(** How many (stage, replica) assignments each node carries. *)

val stage_capacity :
  ?dispatch:Aspipe_skel.Skel_sim.dispatch -> Costspec.t -> replicas:int list array -> int -> float
(** Items/s stage [i] can sustain given everyone's replica sets. *)

val throughput :
  ?dispatch:Aspipe_skel.Skel_sim.dispatch -> Costspec.t -> replicas:int list array -> float
(** min over stages of {!stage_capacity}.
    Raises [Invalid_argument] on dimension errors or empty replica sets. *)

val best_replication :
  ?dispatch:Aspipe_skel.Skel_sim.dispatch ->
  Costspec.t ->
  budget:int ->
  processors:int ->
  int list array * float
(** The replica sets to deploy with at most [budget] replicas in total, and
    their predicted throughput.

    - [Least_loaded] (the default), greedy: every stage starts with one
      replica on its own processor (round-robin, error if
      [processors < stages]); the remaining [budget − Ns] replicas go one
      at a time to the current bottleneck stage, each on the least-loaded
      node.
    - [Round_robin], one-stage pipelines only: sort the nodes by rate,
      fastest first (ties by node id), and take the prefix of at most
      [budget] nodes whose [k × rate_k] is maximal — no other subset of
      that size limit deals faster. Raises [Invalid_argument] on a
      multi-stage spec. *)
