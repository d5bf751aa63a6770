(** The adaptive parallel pipeline pattern — the reproduction's primary
    contribution.

    One {!run} executes the full ASPara-style lifecycle on a scenario:

    + {b Calibration}: probe the stage costs ({!Calibration}) and, unless
      disabled, take an initial resource reading;
    + {b Scheduling}: choose the initial stage→processor mapping by model
      search over the calibrated cost spec;
    + {b Execution with monitoring}: run the pipeline on the simulated grid
      while the {!Aspipe_grid.Monitor} samples resource availability through
      noisy sensors and feeds the NWS-style forecasters;
    + {b Adaptation}: at every evaluation epoch, hand the policy a context of
      fresh forecasts, the observed output rate and a migration-cost
      estimator; if it answers [Remap], migrate the moving stages (state
      transfer over the network, restart penalty folded into the cost
      estimate the policy already cleared).

    Everything the engine decides from is observable information —
    calibration estimates, noisy monitor forecasts, the trace — never the
    simulator's ground truth, so comparisons against static and oracle
    baselines are honest. *)

type config = {
  policy : unit -> Policy.t;  (** factory, so every run gets fresh state *)
  evaluator : Aspipe_model.Predictor.kind;
  monitor_every : float;
  evaluate_every : float;
  sensor : Aspipe_grid.Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  migration : Migration.t;
  fix_first_on : int option;
      (** pin stage 0's processor during search (paper-style tables) *)
  initial_resource_reading : bool;
      (** calibrate against ground-truth availability at t = 0 (an NWS
          deployment has pre-run history); otherwise assume dedicated *)
  failover : Policy.failover;
      (** failure response: when the monitor suspects a mapped node (missed
          heartbeats), re-map the orphaned stages to survivors and replay
          their checkpointed items — checked at each evaluation epoch,
          before the performance policy *)
  exhaustive_limit : int;
      (** largest candidate space the predictor searches exhaustively before
          falling back to greedy + hill-climb (default
          {!Aspipe_model.Search.default_exhaustive_limit}) *)
}

val default_config : config
(** threshold policy (drop 0.25, cooldown 30 s), analytic evaluator,
    monitor every 5 s, evaluate every 10 s, default sensor, 5 probes,
    default migration model, initial reading on,
    {!Policy.default_failover}. *)

type report = {
  scenario_name : string;
  policy_name : string;
  trace : Aspipe_grid.Trace.t;
      (** completions and adaptations; a trace of every service and
          transfer is attached through [?instrument] *)
  calibration : Calibration.t;
  initial_mapping : Aspipe_model.Mapping.t;
  final_mapping : Aspipe_model.Mapping.t;
  makespan : float;
  throughput : float;
  adaptation_count : int;
  policy_evaluations : int;
  monitor_samples : int;
  failover_count : int;  (** committed failure-driven re-maps *)
  items_lost : int;  (** cumulative item-loss events across all crashes *)
  items_redispatched : int;  (** checkpoint replays that re-entered the pipe *)
}

val run :
  ?config:config ->
  ?instrument:(Aspipe_obs.Bus.t -> unit) ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  report
(** Build a fresh environment from the scenario and execute to completion.
    Deterministic in [(scenario, config, seed)].

    [instrument] is called with the run's event bus before calibration
    starts, so telemetry sinks (JSONL, Perfetto, metrics meters) can be
    subscribed and observe the complete run: calibration samples, monitor
    readings, forecast updates, every service/transfer/completion, and each
    adaptation decision (considered / committed / rejected). Sinks are pure
    observers — attaching them never changes the run. Without an [All]
    sink the bus stays inactive and the simulator builds no per-item
    event. *)

val pp_report : Format.formatter -> report -> unit
