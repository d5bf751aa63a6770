(** The open-arrival serving driver: the adaptive engine re-hosted for a
    workload that never ends.

    Where {!Aspipe_core.Adaptive.run} drains a known batch and scores
    makespan, [run] serves an {!Arrival.t} process against a latency
    {!Slo.spec} and scores {e SLO attainment versus provisioned cost}:

    - arrivals are lazy self-rescheduling engine events ({!Arrival.schedule}),
      injected into an open-stream {!Aspipe_skel.Skel_sim} that stamps every
      item and emits per-item [Sojourn] events on departure;
    - SLO windows close on their own periodic clock and are published as
      [Slo_window] control events;
    - the autoscaler policy is evaluated periodically with the full serving
      context (backlog, observed arrival rate, windowed p99 and its slope,
      and a cheapest-adequate-mapping search for scale-down);
    - provisioned cost is accounted as node-seconds: the time integral of
      the adopted mapping's distinct-node footprint.

    Calibration, monitoring, belief formation and failover are shared with
    the closed-stream engine, so serving runs and batch runs are honestly
    comparable. *)

type config = {
  evaluator : Aspipe_model.Predictor.kind;
  monitor_every : float;
  evaluate_every : float;
  sensor : Aspipe_grid.Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  migration : Aspipe_core.Migration.t;
  fix_first_on : int option;
  failover : Aspipe_core.Policy.failover;
  headroom : float;
      (** capacity margin for provisioning and scale-down targets *)
  amortize_horizon : float;
      (** seconds of expected future demand a migration is amortized
          against (open streams have no finite item remainder) *)
  queue_capacity : int option;
}

val default_config : config

type report = {
  scenario_name : string;
  autoscaler_name : string;
  trace : Aspipe_grid.Trace.t;
      (** completions, open-arrival stamps and adaptations; a trace of every
          service and transfer is attached through [?instrument] *)
  slo : Slo.spec;
  windows : Slo.window_stats list;
  attainment : float;  (** fraction of SLO windows attained; [nan] if none *)
  arrivals : int;
  completions : int;
  violations : int;  (** departures over the latency threshold *)
  p50 : float;  (** exact nearest-rank quantiles of the sojourn series *)
  p99 : float;
  p999 : float;
  mean_sojourn : float;
  max_sojourn : float;
  node_seconds : float;  (** provisioned cost *)
  mean_nodes : float;  (** node_seconds / run duration *)
  duration : float;  (** last departure's virtual time *)
  initial_mapping : Aspipe_model.Mapping.t;
  final_mapping : Aspipe_model.Mapping.t;
  adaptation_count : int;
  policy_evaluations : int;
  failover_count : int;
  items_lost : int;
}

val run :
  ?config:config ->
  ?instrument:(Aspipe_obs.Bus.t -> unit) ->
  ?max_items:int ->
  ?initial:[ `Cheapest | `Best ] ->
  autoscaler:Autoscaler.t ->
  arrival:Arrival.t ->
  slo:Slo.spec ->
  ?provision_rate:float ->
  scenario:Aspipe_core.Scenario.t ->
  seed:int ->
  unit ->
  report
(** Serve [arrival] through [scenario]'s pipeline until the scenario
    horizon, then let the queue drain. [provision_rate] (items/s, default
    0) is the demand the initial mapping is provisioned for: with
    [~initial:`Cheapest] (default) the run starts on the cheapest mapping
    predicted to cover [provision_rate × headroom]; [`Best] starts on the
    throughput-maximal mapping (the over-provisioned baseline).
    [max_items] bounds total arrivals (for embedded closed streams).
    Deterministic for fixed seed and configuration.

    [instrument] is called with the run's event bus before calibration.
    Without it the bus stays inactive and the simulator builds no per-item
    event; sinks are pure observers and never change the report. *)

val pp_report : Format.formatter -> report -> unit
