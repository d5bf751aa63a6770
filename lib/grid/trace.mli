(** Execution traces: what the simulated pipeline did.

    The trace is both the measurement instrument (throughput, completion
    time, per-stage service samples feed the experiments) and the
    observability channel the adaptive engine itself uses (windowed output
    rate).

    A trace is {e full} when it is {!subscribe}d to a run's bus: it then
    records every service, transfer, completion, sojourn stamp and
    adaptation ({!Aspipe_skel.Skel_sim.create}'s [~trace], or a caller's own
    trace attached through [?instrument] of an adaptive or serving run).
    The report trace of the adaptive, serving and static-baseline runs is
    {e not} full: the run fills it from the simulator's completion hook and
    its own commit site, so it holds completions, open-arrival stamps and adaptations only,
    and {!services}, {!transfers} and closed-stream {!sojourns} are empty on
    it. *)

type service = { item : int; stage : int; node : int; start : float; finish : float }
type transfer = { item : int; from_stage : int; src : int; dst : int; start : float; finish : float }
type adaptation = {
  at : float;
  mapping_before : int array;
  mapping_after : int array;
  predicted_gain : float;
  migration_cost : float;
}

type t

val create : unit -> t

val record_service : t -> service -> unit
val record_transfer : t -> transfer -> unit
val record_completion : t -> item:int -> time:float -> unit

val record_departure : t -> item:int -> arrival:float -> time:float -> unit
(** One departure as the simulator's completion hook reports it: [item]
    completes at [time], and [arrival] is its open-arrival stamp, from
    which {!sojourns} measures, or [nan] on a closed stream. *)

val record_adaptation : t -> adaptation -> unit

val subscribe : t -> Aspipe_obs.Bus.t -> unit
(** Attach this trace as a sink on an event bus: [Service_finish],
    [Transfer], [Completion] and [Adaptation_committed] events are
    translated into the corresponding records, and [Sojourn] events into
    open-arrival stamps (other events are ignored). The simulator's
    [create] ({!Aspipe_skel.Skel_sim.create}) does this for the trace passed
    as [~trace]; the caller of an adaptive or serving run does it through
    the run's [?instrument]. The subscription has [All] interest, so it switches the
    per-item emits on. *)

val completions : t -> (int * float) array
(** (item, departure time), in departure order. *)

val items_completed : t -> int

val makespan : t -> float
(** Time of the last completion (0 if none). *)

val throughput : t -> float
(** [items_completed / makespan]; 0 when nothing completed. *)

val throughput_after : t -> float -> float
(** [throughput_after t t0] — steady-state estimate ignoring completions
    before [t0] (pipeline fill). *)

val throughput_series : t -> window:float -> (float * float) array
(** Windowed output rate: for each window [\[k·w, (k+1)·w)], the number of
    completions divided by [w], stamped at the window's midpoint. *)

val services : t -> service list
(** In recording order. *)

val service_times : t -> stage:int -> float array
(** Durations of every service of [stage]. *)

val services_on_node : t -> node:int -> int
val transfers : t -> transfer list
val adaptations : t -> adaptation list
(** In time order. *)

val sojourns : t -> (int * float) array
(** Per-item sojourn series, in completion order: [(item, sojourn)] for
    every completed item whose entry instant is known. The entry instant is
    the item's open-arrival stamp when the trace recorded a
    [Aspipe_obs.Event.Sojourn] event for it (serving runs), and its first
    service start otherwise — so histograms and quantiles are computable
    from any recorded trace, not just the mean. *)

val mean_sojourn : t -> float
(** Mean of the {!sojourns} series ([nan] if nothing completed). *)
