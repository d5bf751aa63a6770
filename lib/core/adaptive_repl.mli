(** Adaptive stage replication: the pipeline with farmed stages, re-shaping
    its replica sets at run time — the replication counterpart of
    {!Adaptive}.

    Where {!Adaptive} moves whole stages between processors, this engine
    treats every stage as a (possibly singleton) farm and periodically
    re-derives the best replica allocation for a fixed node budget from the
    monitors' forecasts ({!Aspipe_model.Repl_model.best_replication} over
    forecast-scaled rates). If a replica node degrades, the next allocation
    routes around it; if it recovers, it is re-admitted. Changing a
    replicated stage's set is cheap (the deal is stateless); a one-node
    stage given another single node migrates its state
    ({!Aspipe_skel.Skel_sim.set_replicas}). The gain threshold is the only
    brake.

    A task farm is the one-stage case. Under a [Round_robin] deal the right
    worker set is the fastest prefix of the nodes, since equal shares wait
    on the slowest member: on a non-dedicated grid, evicting a degraded
    worker {e raises} farm throughput, and re-admitting it once it recovers
    raises it again. *)

type config = {
  dispatch : Aspipe_skel.Skel_sim.dispatch;
      (** [Round_robin] requires a one-stage scenario *)
  monitor_every : float;
  evaluate_every : float;
  sensor : Aspipe_grid.Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  min_gain : float;  (** relative predicted-throughput gain to reconfigure *)
  budget : int option;  (** replica budget; default = number of nodes *)
  adapt : bool;  (** [false] = static run with the initial replica sets *)
}

val default_config : config
(** least-loaded, monitor 5 s / evaluate 10 s, default sensor, 5 probes,
    1% noise, 10% min gain, budget = every node, adaptation on. *)

type report = {
  scenario_name : string;
  trace : Aspipe_grid.Trace.t;
  initial_replicas : int list array;
  final_replicas : int list array;
  history : (float * int list array) list;
      (** reconfigurations: when, and the replica sets adopted, in time order *)
  makespan : float;
  throughput : float;
  monitor_samples : int;
}

val run : ?config:config -> scenario:Scenario.t -> seed:int -> unit -> report
(** Requires at least as many nodes as stages (each stage needs one
    replica), and a one-stage scenario under [Round_robin]; raises
    [Invalid_argument] otherwise. An evaluation is skipped while
    {!Aspipe_skel.Skel_sim.reshapable} does not hold. Each reconfiguration
    is emitted as an [Adaptation_committed] event whose mappings are the
    per-stage replica counts and whose migration cost is the stall
    {!Migration.stall_seconds} predicts for the one-node stages it moves.
    Deterministic in [(scenario, config, seed)]. *)

val pp_report : Format.formatter -> report -> unit
