(* perfbench — the aspipe benchmark.

   Five workloads, each driven through the library's public entry points
   only (Adaptive.run, Serve.run, Skel_mc.run_fold / Pipe.apply,
   Campaign.run). An untraced run (--trace 0) measures the end-to-end
   metrics; a traced run (--trace 1) measures the per-layer metrics from
   outside the library: wall-clock timing of the calls into each layer,
   public counters (Engine.events_fired, Bus.events_emitted, the report
   records), Gc.quick_stat deltas, and a Control-interest bus sink that
   times every Adaptation_considered -> rejected/committed window (one
   Policy.decide, i.e. one mapping search). The traced run also writes the
   spans it recorded as Chrome trace-event JSON.

   Every workload checks its outputs; a check that fails counts as a
   failed operation. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. See perfbench/README.md. *)

module Engine = Aspipe_des.Engine
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Json = Aspipe_obs.Json
module Trace = Aspipe_grid.Trace
module Topology = Aspipe_grid.Topology
module Loadgen = Aspipe_grid.Loadgen
module Mapping = Aspipe_model.Mapping
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Policy = Aspipe_core.Policy
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Pipe = Aspipe_skel.Pipe
module Skel_mc = Aspipe_skel.Skel_mc
module Serve = Aspipe_serve.Serve
module Arrival = Aspipe_serve.Arrival
module Slo = Aspipe_serve.Slo
module Autoscaler = Aspipe_serve.Autoscaler
module Campaign = Aspipe_runner.Campaign
module Image = Aspipe_workload.Image
module Textproc = Aspipe_workload.Textproc
module Synthetic = Aspipe_workload.Synthetic
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

let now = Skel_mc.now_seconds
let cores = Domain.recommended_domain_count ()

(* ------------------------------------------------------------ catalogue *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

(* Reported by every workload of an untraced run. Where a metric has no
   native meaning on a workload, README.md gives the stand-in it reports. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("items_per_s", "items/s", Higher);
    ("speedup_vs_seq", "x", Higher);
    ("wall_s", "s", Lower);
    ("makespan_s", "s", Lower);
    ("p99_sojourn_s", "s", Lower);
    ("slo_attainment", "fraction", Higher);
    ("node_seconds", "node-s", Lower);
    ("peak_rss_mb", "MB", Lower);
  ]

let experiment_ids = List.init 24 (fun i -> Printf.sprintf "E%d" (i + 1))

(* The layer each experiment mainly drives, for the campaign attribution. *)
let experiment_layers =
  [
    ("sim", [ "E3"; "E4"; "E7"; "E8"; "E11"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20" ]);
    ("model", [ "E1"; "E2"; "E5"; "E6"; "E9"; "E13" ]);
    ("mc", [ "E10" ]);
    ("serve", [ "E21"; "E22"; "E23"; "E24" ]);
    ("replication", [ "E12"; "E14" ]);
  ]

(* Experiments whose output contains wall-clock timings. *)
let wall_clock_experiments = [ "E6"; "E10"; "E13" ]

(* Reported by every workload of a traced run; 0 where the layer is not
   exercised. *)
let per_layer =
  [
    ("des.events", "count", Lower);
    ("des.events_per_item", "count/item", Lower);
    ("des.alloc_bytes_per_event", "B/event", Lower);
    ("skel_sim.self_s", "s", Lower);
    ("skel_sim.alloc_bytes_per_item", "B/item", Lower);
    ("obs.events_emitted_per_item", "count/item", Lower);
    ("model.decisions", "count", Lower);
    ("model.decide_ms_p50", "ms", Lower);
    ("model.decide_ms_p99", "ms", Lower);
    ("model.decide_share", "fraction", Lower);
    ("core.adaptations", "count", Lower);
    ("core.monitor_samples", "count", Lower);
    ("serve.arrivals", "count", Higher);
    ("serve.completions", "count", Higher);
    ("serve.remaps", "count", Lower);
    ("serve.decide_ms_p99", "ms", Lower);
    ("pipe.seq_us_per_item", "us/item", Lower);
    ("skel_mc.bottleneck_busy_share", "fraction", Higher);
    ("skel_mc.domains_per_core", "domains/core", Lower);
    ("gc.minor_per_kitem", "count/kitem", Lower);
    ("gc.major_per_kitem", "count/kitem", Lower);
    ("runner.serial_s", "s", Lower);
    ("runner.speedup", "x", Higher);
    ("runner.utilisation_mean", "fraction", Higher);
  ]
  @ List.map (fun (layer, _) -> ("runner.share_" ^ layer, "fraction", Lower)) experiment_layers
  @ List.map (fun id -> ("exp." ^ id ^ "_s", "s", Lower)) experiment_ids
  @ [ ("trace.overhead", "x", Lower) ]

(* ------------------------------------------------------------- helpers *)

type size = Full | Tiny

type cfg = {
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  corrupt : bool;  (* perturb every reference, so each check must fail *)
  spans : Spans.t;
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Timings are taken as the fastest of several repetitions: on a shared
   host, interference from other tenants only ever slows a repetition, and
   it comes in phases of seconds that a median does not outlast. *)
let best xs = List.fold_left Float.min infinity xs

(* Nearest-rank quantile. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Run the set-up several times and report the median, so that work moved
   into set-up shows and one slow set-up does not decide the figure. *)
let setups cfg f =
  let n = match cfg.size with Full -> 3 | Tiny -> 1 in
  let runs = List.init n (fun _ -> timed f) in
  (median (List.map snd runs), List.map fst runs)

(* Call [rep] at least [min_reps] times, and again while another call of
   the last one's length still ends within [seconds]. *)
let repeat ~seconds ~min_reps rep =
  let t0 = now () in
  let rec go acc n last =
    let elapsed = now () -. t0 in
    if n >= min_reps && elapsed +. last > seconds then List.rev acc
    else
      let r, took = timed rep in
      go (r :: acc) (n + 1) took
  in
  go [] 0 0.0

let min_reps cfg = match cfg.size with Full -> 3 | Tiny -> 2

(* Bytes allocated by the calling domain, and the collection counts, across [f]. *)
type gc_delta = { alloc_bytes : float; minor : int; major : int }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words +. s1.Gc.major_words -. s0.Gc.major_words
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  ( v,
    {
      alloc_bytes = words *. float (Sys.word_size / 8);
      minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                Some (float kb /. 1024.0))
        | _ -> scan ()
        | exception End_of_file -> None
      in
      let v = scan () in
      close_in ic;
      v
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* What one workload run produced. [metrics] are by catalogue name. *)
type outcome = { attempted : int; failed : int; metrics : (string * float) list }

let perturb s = s ^ "#corrupted"

(* Untraced-versus-traced throughput: the cost of the benchmark's own
   tracing, as a ratio (1 = free). *)
let overhead ~untraced ~traced = if traced > 0.0 then untraced /. traced else nan

(* ------------------------------------------------- grid decide probe *)

(* A Control-interest sink: it does not switch on the per-item emit path.
   It times each Adaptation_considered -> Adaptation_rejected/committed
   pair, which brackets exactly one Policy.decide. *)
type probe = {
  mutable opened : float;
  mutable windows : float list;  (* seconds, newest first *)
  mutable monitor_events : int;
  spans : Spans.t;
}

let new_probe spans = { opened = nan; windows = []; monitor_events = 0; spans }

let attach probe bus =
  ignore
    (Bus.subscribe ~interest:Bus.Control bus (fun (ev : Event.t) ->
         match ev.Event.payload with
         | Event.Adaptation_considered _ -> probe.opened <- now ()
         | Event.Adaptation_rejected _ | Event.Adaptation_committed _ ->
             let stop = now () in
             probe.windows <- (stop -. probe.opened) :: probe.windows;
             Spans.add probe.spans ~name:"Policy.decide" ~cat:"model" ~start:probe.opened ~stop
               ~args:[ ("virtual_t", Json.Float ev.Event.time) ]
               ()
         | Event.Monitor_sample _ -> probe.monitor_events <- probe.monitor_events + 1
         | _ -> ()))

(* Engines built by a scenario's [make_topo], so their public counters can
   be read after the run. *)
let capture_engines make engines e =
  engines := e :: !engines;
  make e

let sum_engines engines f = List.fold_left (fun acc e -> acc + f e) 0 engines

let distinct a = List.length (List.sort_uniq Int.compare (Array.to_list a))

(* Virtual time one fastest dedicated node needs for [items], over the
   virtual time the pipeline took. *)
let work_speedup ~stages ~speed ~items ~span =
  let work = Array.fold_left (fun acc s -> acc +. Stage.mean_work s) 0.0 stages in
  float items *. work /. speed /. span

(* One virtual-time run, reduced to what the grid metrics need. *)
type grid_run = {
  items : int;  (* batch items, or arrivals *)
  completions : int;
  span : float;  (* virtual makespan, or time of the last departure *)
  p99 : float;  (* 99th-percentile sojourn from the arrival stamp *)
  node_seconds : float;
  speedup : float;
  windows : int * int;  (* SLO windows attained, sealed *)
  adaptations : int;
  monitor_samples : int option;  (* when the report records it *)
  fingerprint : string;
}

(* One round of a grid workload, and what a traced round adds to it. *)
type round = {
  runs : grid_run list;
  walls : float list;  (* per instance *)
  events : int;
  emitted : int;
  fingerprint : string;
}

type traced_round = {
  round : round;
  gc : gc_delta;
  decide_windows : float list;  (* seconds *)
  decide_share : float;
  monitor_events : int;
}

(* The two grid workloads run an ensemble: [instances] independent
   scenario instances per round, instance [i] seeded from (seed, i), so one
   round averages over many load or arrival draws and the figures of one
   seed stand for the workload rather than for one draw. Every round
   repeats the same instances, and each must reproduce the first round's
   virtual results exactly. A round's wall time is the sum over instances
   of each instance's fastest wall time across rounds. *)
let grid cfg ~instances ~serving ~instance ~warm_up =
  let seeds = List.init instances (fun i -> (cfg.seed * 1000) + i) in
  (* Counters are read as each instance ends, so no instance's engine (and
     the trace its bus feeds) outlives it. *)
  let run_instance ~instrument seed =
    let engines = ref [] in
    let r, wall = timed (fun () -> instance ~instrument ~engines ~seed) in
    let events = sum_engines !engines Engine.events_fired in
    let emitted = sum_engines !engines (fun e -> Bus.events_emitted (Engine.bus e)) in
    (r, wall, events, emitted)
  in
  let round ?instrument () =
    let results = List.map (run_instance ~instrument) seeds in
    let runs = List.map (fun (r, _, _, _) -> r) results in
    let events = List.fold_left (fun acc (_, _, e, _) -> acc + e) 0 results in
    {
      runs;
      walls = List.map (fun (_, w, _, _) -> w) results;
      events;
      emitted = List.fold_left (fun acc (_, _, _, e) -> acc + e) 0 results;
      fingerprint =
        String.concat ";"
          (string_of_int events :: List.map (fun (r : grid_run) -> r.fingerprint) runs);
    }
  in
  let round_wall rounds =
    List.fold_left ( +. ) 0.0
      (List.init instances (fun i -> best (List.map (fun r -> List.nth r.walls i) rounds)))
  in
  let setup_s, _ = setups cfg (fun () -> warm_up ~seed:cfg.seed) in
  let reference = ref None in
  let check r =
    match !reference with
    | None ->
        reference := Some (if cfg.corrupt then perturb r.fingerprint else r.fingerprint);
        0
    | Some fp -> Bool.to_int (r.fingerprint <> fp)
  in
  let failed rounds = List.fold_left (fun acc r -> acc + check r) 0 rounds in
  let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let mean f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs /. float (List.length runs) in
  let items runs = float (sum (fun r -> r.items) runs) in
  if not cfg.traced then begin
    let rounds = repeat ~seconds:cfg.seconds ~min_reps:(min_reps cfg) (fun () -> round ()) in
    let failed = failed rounds in
    let runs = (List.hd rounds).runs in
    let wall = round_wall rounds in
    let attained = sum (fun r -> fst r.windows) runs and sealed = sum (fun r -> snd r.windows) runs in
    {
      attempted = List.length rounds;
      failed;
      metrics =
        [
          ("setup_s", setup_s);
          ("items_per_s", items runs /. wall);
          ("speedup_vs_seq", mean (fun r -> r.speedup) runs);
          ("wall_s", wall);
          ("makespan_s", mean (fun r -> r.span) runs);
          (* One draw's flash-crowd response can be far off the rest; the
             median instance stands for the workload. *)
          ("p99_sojourn_s", median (List.map (fun r -> r.p99) runs));
          ("slo_attainment", if sealed = 0 then 1.0 else float attained /. float sealed);
          ("node_seconds", mean (fun r -> r.node_seconds) runs);
          ("peak_rss_mb", peak_rss_mb ());
        ];
    }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = repeat ~seconds:half ~min_reps:1 (fun () -> round ()) in
    let probe = new_probe cfg.spans in
    let traced_round () =
      probe.windows <- [];
      probe.monitor_events <- 0;
      let round, gc =
        with_gc (fun () ->
            Spans.with_span cfg.spans ~now
              ~name:(if serving then "Serve.run" else "Adaptive.run")
              ~cat:"entry" (fun () -> round ~instrument:(attach probe) ()))
      in
      let decide = List.fold_left ( +. ) 0.0 probe.windows in
      {
        round;
        gc;
        decide_windows = probe.windows;
        decide_share = decide /. List.fold_left ( +. ) 0.0 round.walls;
        monitor_events = probe.monitor_events;
      }
    in
    let traced = repeat ~seconds:half ~min_reps:1 traced_round in
    let first = List.hd traced in
    let { runs; events; emitted; _ } = first.round in
    let failed = failed plain + failed (List.map (fun t -> t.round) traced) in
    let n = items runs in
    let windows = List.concat_map (fun t -> t.decide_windows) traced in
    let wall_t = round_wall (List.map (fun t -> t.round) traced) in
    let wall_u = round_wall plain in
    let decide_share = median (List.map (fun t -> t.decide_share) traced) in
    let serve_metrics =
      if not serving then []
      else
        [
          ("serve.arrivals", n);
          ("serve.completions", float (sum (fun r -> r.completions) runs));
          ("serve.remaps", float (sum (fun r -> r.adaptations) runs));
          ("serve.decide_ms_p99", 1e3 *. quantile 0.99 windows);
        ]
    in
    {
      attempted = List.length plain + List.length traced;
      failed;
      metrics =
        [
          ("des.events", float events);
          ("des.events_per_item", float events /. n);
          ("des.alloc_bytes_per_event", first.gc.alloc_bytes /. float events);
          ("skel_sim.self_s", wall_t *. (1.0 -. decide_share));
          ("skel_sim.alloc_bytes_per_item", first.gc.alloc_bytes /. n);
          ("obs.events_emitted_per_item", float emitted /. n);
          ("model.decisions", float (List.length first.decide_windows));
          ("model.decide_ms_p50", 1e3 *. quantile 0.5 windows);
          ("model.decide_ms_p99", 1e3 *. quantile 0.99 windows);
          ("model.decide_share", decide_share);
          ("core.adaptations", float (sum (fun r -> r.adaptations) runs));
          ( "core.monitor_samples",
            float
              (match List.map (fun r -> r.monitor_samples) runs with
              | Some _ :: _ as counts -> List.fold_left (fun acc c -> acc + Option.get c) 0 counts
              | _ -> first.monitor_events) );
          ("gc.minor_per_kitem", float first.gc.minor /. (n /. 1e3));
          ("gc.major_per_kitem", float first.gc.major /. (n /. 1e3));
          ("trace.overhead", overhead ~untraced:(n /. wall_u) ~traced:(n /. wall_t));
        ]
        @ serve_metrics;
    }
  end

(* ------------------------------------------------------ grid-adaptive *)

(* The paper's own loop: a closed batch (all items at t = 0) on four
   heterogeneous, randomly loaded nodes, re-mapped after an exhaustive
   branch-and-bound search over 4^8 mappings at every 10 s epoch. *)

let ga_speeds = [| 6.0; 8.0; 10.0; 12.0 |]

let ga_scenario ~items engines =
  Scenario.make ~name:"grid-adaptive"
    ~make_topo:
      (capture_engines
         (fun e -> Topology.heterogeneous e ~speeds:ga_speeds ~latency:0.01 ~bandwidth:1e7 ())
         engines)
    ~loads:
      (List.init (Array.length ga_speeds) (fun i ->
           (i, Loadgen.Random_walk { every = 5.0; sigma = 0.15; lo = 0.3; hi = 1.0 })))
    ~stages:(Synthetic.hot_stage ~n:8 ~factor:3.0 ())
    ~input:(Stream_spec.make ~items ())
    ()

let ga_config = { Adaptive.default_config with policy = (fun () -> Policy.periodic_best ()) }

(* Virtual node-seconds the run's mappings held: distinct nodes of each
   mapping times how long it was in force. *)
let ga_node_seconds (r : Adaptive.report) =
  let rec go t mapping acc = function
    | [] -> acc +. (float (distinct mapping) *. (r.Adaptive.makespan -. t))
    | (a : Trace.adaptation) :: rest ->
        go a.Trace.at a.Trace.mapping_after
          (acc +. (float (distinct mapping) *. (a.Trace.at -. t)))
          rest
  in
  go 0.0 (Mapping.to_array r.Adaptive.initial_mapping) 0.0 (Trace.adaptations r.Adaptive.trace)

let grid_adaptive cfg =
  let instances, items = match cfg.size with Full -> (16, 2_500) | Tiny -> (2, 200) in
  let instance ~instrument ~engines ~seed =
    let scenario = ga_scenario ~items engines in
    let r = Adaptive.run ~config:ga_config ?instrument ~scenario ~seed () in
    let completed = Trace.items_completed r.Adaptive.trace in
    {
      items;
      completions = completed;
      span = r.Adaptive.makespan;
      (* All items arrive at t = 0, so an item's sojourn is its completion time. *)
      p99 = quantile 0.99 (Array.to_list (Array.map snd (Trace.completions r.Adaptive.trace)));
      node_seconds = ga_node_seconds r;
      speedup =
        work_speedup ~stages:scenario.Scenario.stages ~speed:ga_speeds.(3) ~items
          ~span:r.Adaptive.makespan;
      windows = (0, 0);
      adaptations = r.Adaptive.adaptation_count;
      monitor_samples = Some r.Adaptive.monitor_samples;
      fingerprint =
        Printf.sprintf "%h/%d/%d" r.Adaptive.makespan r.Adaptive.adaptation_count completed;
    }
  in
  let warm_up ~seed =
    ignore (Adaptive.run ~config:ga_config ~scenario:(ga_scenario ~items (ref [])) ~seed ())
  in
  grid cfg ~instances ~serving:false ~instance ~warm_up

(* ---------------------------------------------------------- grid-serve *)

(* An open loop in virtual time: arrivals follow a flash-crowd schedule
   whatever the pipeline does, and sojourns run from the arrival stamp.
   E22's estate (4 stages on 5 uniform nodes) with the arrival rates scaled
   up and the stage work scaled down ten-fold, served by the
   latency-gradient autoscaler from the cheapest adequate mapping. *)

let gs_speed = 10.0

let gs_scenario ~horizon engines =
  Scenario.make ~name:"grid-serve"
    ~make_topo:
      (capture_engines
         (fun e -> Topology.uniform e ~n:5 ~speed:gs_speed ~latency:0.01 ~bandwidth:1e7 ())
         engines)
    ~stages:
      (Array.init 4 (fun i ->
           Stage.make
             ~name:(Printf.sprintf "srv%d" i)
             ~output_bytes:1e4 ~state_bytes:1e5 ~work:(Variate.Constant 0.1) ()))
    ~input:(Stream_spec.make ~item_bytes:1e4 ~items:1 ())
    ~horizon ()

let gs_arrival = Arrival.flash_crowd ~base:18.0 ~peak:60.0 ~at:120.0 ~ramp:20.0 ~decay:60.0
let gs_slo () = Slo.spec ~target_quantile:0.95 ~threshold:0.6 ~window:30.0

let grid_serve cfg =
  let instances, horizon = match cfg.size with Full -> (32, 450.0) | Tiny -> (2, 150.0) in
  let autoscaler = Autoscaler.latency_gradient () in
  let serve ~instrument ~engines ~seed =
    let scenario = gs_scenario ~horizon engines in
    let r =
      Serve.run ?instrument ~initial:`Cheapest ~autoscaler ~arrival:gs_arrival ~slo:(gs_slo ())
        ~provision_rate:18.0 ~scenario ~seed ()
    in
    (scenario, r)
  in
  let instance ~instrument ~engines ~seed =
    let scenario, r = serve ~instrument ~engines ~seed in
    {
      items = r.Serve.arrivals;
      completions = r.Serve.completions;
      span = r.Serve.duration;
      p99 = r.Serve.p99;
      node_seconds = r.Serve.node_seconds;
      speedup =
        work_speedup ~stages:scenario.Scenario.stages ~speed:gs_speed ~items:r.Serve.completions
          ~span:r.Serve.duration;
      windows =
        ( List.length (List.filter (fun (w : Slo.window_stats) -> w.Slo.attained) r.Serve.windows),
          List.length r.Serve.windows );
      adaptations = r.Serve.adaptation_count;
      monitor_samples = None;
      fingerprint =
        Printf.sprintf "%h/%h/%d/%d/%d" r.Serve.p99 r.Serve.node_seconds r.Serve.arrivals
          r.Serve.completions r.Serve.adaptation_count;
    }
  in
  let warm_up ~seed = ignore (serve ~instrument:None ~engines:(ref []) ~seed) in
  grid cfg ~instances ~serving:true ~instance ~warm_up

(* ------------------------------------------------------------ mc-* *)

(* Stage busy time for the traced run: each stage of the Pipe.t is wrapped
   in a timing closure built from the public constructors. A probe is only
   written by the domain running its stage and read after the run joins. *)
type stage_probe = { mutable busy : float; mutable kept : (float * float) list; mutable n_kept : int }

let spans_per_stage = 200

let time_stage p f x =
  let t0 = now () in
  let y = f x in
  let t1 = now () in
  p.busy <- p.busy +. (t1 -. t0);
  if p.n_kept < spans_per_stage then begin
    p.kept <- (t0, t1) :: p.kept;
    p.n_kept <- p.n_kept + 1
  end;
  y

let rec timed_pipe : type a b. stage_probe array -> int -> (a, b) Pipe.t -> (a, b) Pipe.t =
 fun probes i p ->
  match p with
  | Pipe.Last f -> Pipe.Last (time_stage probes.(i) f)
  | Pipe.Stage (f, rest) -> Pipe.Stage (time_stage probes.(i) f, timed_pipe probes (i + 1) rest)

(* One multicore workload: [inputs] through [pipe] with Skel_mc.run_fold,
   folded into an order-sensitive digest that must equal the digest of the
   sequential reference (Pipe.apply over the same inputs). Each repetition
   times one sequential pass and one parallel pass back to back; the
   speed-up is the fastest parallel pass over the fastest sequential one. *)
let multicore cfg ~make_inputs ~pipe ~capacity ~batch ~digest =
  let seq_digest inputs = Array.fold_left (fun acc x -> digest acc (Pipe.apply pipe x)) 0 inputs in
  let setup_s, setups_out =
    setups cfg (fun () ->
        let inputs = make_inputs (Rng.create cfg.seed) in
        (* Warm-up: spawn the stage domains once on a short prefix. *)
        ignore
          (Skel_mc.run_fold ~capacity ~batch pipe ~items:(min 32 (Array.length inputs))
             ~gen:(fun i -> inputs.(i)) ~init:0 ~f:digest);
        (inputs, seq_digest inputs))
  in
  let inputs, reference = List.hd setups_out in
  let reference = if cfg.corrupt then reference lxor 1 else reference in
  let n = Array.length inputs in
  let stages = Pipe.length pipe in
  (* The whole batch is there at the start, so an item's sojourn is its
     completion time; outputs arrive in order, so the 99th-percentile
     sojourn is when item ceil(0.99 n) is folded. *)
  let p99_index = max 0 (int_of_float (Float.ceil (0.99 *. float n)) - 1) in
  let parallel pipe =
    let start = now () in
    let p99 = ref nan in
    let k = ref 0 in
    let f acc y =
      if !k = p99_index then p99 := now () -. start;
      incr k;
      digest acc y
    in
    let d = Skel_mc.run_fold ~capacity ~batch pipe ~items:n ~gen:(fun i -> inputs.(i)) ~init:0 ~f in
    (d, now () -. start, !p99)
  in
  let sequential () =
    let d, seq = timed (fun () -> seq_digest inputs) in
    (Bool.to_int (d <> reference), seq)
  in
  (* One repetition: (failed checks, sequential wall, parallel wall, p99). *)
  let rep pipe () =
    let failed, seq = sequential () in
    let d, par, p99 = parallel pipe in
    (failed + Bool.to_int (d <> reference), seq, par, p99)
  in
  let failed reps = List.fold_left (fun acc (f, _, _, _) -> acc + f) 0 reps in
  let par_wall reps = best (List.map (fun (_, _, p, _) -> p) reps) in
  let seq_wall reps = best (List.map (fun (_, s, _, _) -> s) reps) in
  if not cfg.traced then begin
    let reps = repeat ~seconds:cfg.seconds ~min_reps:(min_reps cfg) (rep pipe) in
    let wall = par_wall reps in
    {
      attempted = 2 * List.length reps;
      failed = failed reps;
      metrics =
        [
          ("setup_s", setup_s);
          ("items_per_s", float n /. wall);
          ("speedup_vs_seq", seq_wall reps /. wall);
          ("wall_s", wall);
          ("makespan_s", wall);
          ("p99_sojourn_s", best (List.map (fun (_, _, _, p) -> p) reps));
          ("slo_attainment", 1.0);
          ("node_seconds", float (stages + 1) *. wall);
          ("peak_rss_mb", peak_rss_mb ());
        ];
    }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = repeat ~seconds:half ~min_reps:1 (rep pipe) in
    let traced_rep () =
      let probes = Array.init stages (fun _ -> { busy = 0.0; kept = []; n_kept = 0 }) in
      let failed, seq = sequential () in
      let (d, par, p99), gc =
        with_gc (fun () ->
            Spans.with_span cfg.spans ~now ~name:"Skel_mc.run_fold" ~cat:"entry" (fun () ->
                let out = parallel (timed_pipe probes 0 pipe) in
                Array.iteri
                  (fun i p ->
                    List.iter
                      (fun (start, stop) ->
                        Spans.add cfg.spans ~tid:(i + 1)
                          ~name:(Printf.sprintf "stage %d" i)
                          ~cat:"stage" ~start ~stop ())
                      p.kept)
                  probes;
                out))
      in
      let r = (failed + Bool.to_int (d <> reference), seq, par, p99) in
      let busiest = Array.fold_left (fun acc p -> Float.max acc p.busy) 0.0 probes in
      (r, gc, busiest /. par)
    in
    let traced = repeat ~seconds:half ~min_reps:1 traced_rep in
    let _, gc, _ = List.hd traced in
    let reps = List.map (fun (r, _, _) -> r) traced in
    {
      attempted = 2 * (List.length plain + List.length reps);
      failed = failed plain + failed reps;
      metrics =
        [
          ("pipe.seq_us_per_item", 1e6 *. seq_wall plain /. float n);
          ("skel_mc.bottleneck_busy_share", median (List.map (fun (_, _, b) -> b) traced));
          ("skel_mc.domains_per_core", float (stages + 1) /. float cores);
          ("gc.minor_per_kitem", float gc.minor /. (float n /. 1e3));
          ("gc.major_per_kitem", float gc.major /. (float n /. 1e3));
          ( "trace.overhead",
            overhead ~untraced:(float n /. par_wall plain) ~traced:(float n /. par_wall reps) );
        ];
    }
  end

(* The deep-pipeline, GC-bound regime: five coarse, allocating stages. The
   handoff is batched by 8 because single-item handoff between six domains
   on two cores made throughput flip between two levels from run to run. *)
let mc_image cfg =
  let images = match cfg.size with Full -> 400 | Tiny -> 16 in
  multicore cfg
    ~make_inputs:(fun rng -> Array.init images (fun _ -> Image.random rng ~width:64 ~height:64))
    ~pipe:(Image.standard_chain ~blur_radius:2)
    ~capacity:64 ~batch:8
    ~digest:(fun acc img -> (acc * 31) + Hashtbl.hash (Image.checksum img))

(* The handoff-bound regime: three fine-grained stages, handed over in
   chunks of 64 through 1024-slot rings. *)
let mc_text cfg =
  let docs = match cfg.size with Full -> 200_000 | Tiny -> 2_000 in
  multicore cfg
    ~make_inputs:(fun rng -> Array.init docs (fun _ -> Textproc.random_document rng ~words:8))
    ~pipe:(Textproc.analysis_chain ())
    ~capacity:1024 ~batch:64
    ~digest:(fun acc h -> (acc * 31) + h)

(* ------------------------------------------------------------ campaign *)

(* The quick registry through the campaign runner at jobs = cores: the
   only workload that reaches the runner (Pool, Out capture) and the
   replicated engines. Outputs must be byte-identical to a jobs-1
   reference taken at set-up, except the experiments that print wall-clock
   timings. Each repetition runs a jobs-1 and a jobs-N campaign back to
   back; the speed-up is the fastest jobs-1 campaign over the fastest
   jobs-N one. *)
let campaign cfg =
  let only = match cfg.size with Full -> None | Tiny -> Some [ "E3"; "E6"; "E12"; "E22" ] in
  let compared (r : Campaign.report) =
    List.filter_map
      (fun (o : Campaign.outcome) ->
        if List.mem o.Campaign.id wall_clock_experiments then None
        else Some (o.Campaign.id, o.Campaign.output))
      r.Campaign.outcomes
  in
  let run jobs = timed (fun () -> Campaign.run ~jobs ?only ~quick:true ()) in
  (* Set-up: the jobs-1 reference, then one jobs-N campaign as warm-up (a
     process's first pool run is the slowest). *)
  let setup_s, refs =
    setups cfg (fun () ->
        let reference = compared (fst (run 1)) in
        ignore (run cores);
        reference)
  in
  let reference = List.hd refs in
  let reference =
    if cfg.corrupt then List.map (fun (id, out) -> (id, perturb out)) reference else reference
  in
  let bad (r, _) = Bool.to_int (compared r <> reference) in
  (* One repetition: (failed checks, jobs-1 wall, jobs-N report and wall). *)
  let rep () =
    let ((_, seq) as one) = run 1 in
    let ((_, wall) as many) = run cores in
    (bad one + bad many, seq, many, wall)
  in
  let failed reps = List.fold_left (fun acc (f, _, _, _) -> acc + f) 0 reps in
  let wall reps = best (List.map (fun (_, _, _, w) -> w) reps) in
  if not cfg.traced then begin
    let reps = repeat ~seconds:cfg.seconds ~min_reps:(min_reps cfg) rep in
    let _, _, ((r : Campaign.report), _), _ = List.hd reps in
    let wall = wall reps in
    {
      attempted = 2 * List.length reps;
      failed = failed reps;
      metrics =
        [
          ("setup_s", setup_s);
          ("items_per_s", float (List.length r.Campaign.outcomes) /. wall);
          ("speedup_vs_seq", best (List.map (fun (_, s, _, _) -> s) reps) /. wall);
          ("wall_s", wall);
          ("makespan_s", wall);
          (* Nearest-rank p99 of 24 completions is the last one. *)
          ("p99_sojourn_s", wall);
          ("slo_attainment", 1.0);
          ("node_seconds", float r.Campaign.workers *. wall);
          ("peak_rss_mb", peak_rss_mb ());
        ];
    }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = repeat ~seconds:half ~min_reps:1 rep in
    (* Per-experiment figures come from the jobs-1 campaign: it runs inline,
       so each outcome's elapsed time includes the replications the
       experiment fans out, which a pool run attributes to no experiment. *)
    let traced_rep () =
      let ((one_report : Campaign.report), seq) as one =
        Spans.with_span cfg.spans ~now ~name:"Campaign.run jobs=1" ~cat:"entry" (fun () ->
            let start = now () in
            let ((r : Campaign.report), _) as one = run 1 in
            (* The runner reports compute times, not start times; jobs 1
               runs the experiments one after another, so they are laid
               out back to back. *)
            ignore
              (List.fold_left
                 (fun at (o : Campaign.outcome) ->
                   Spans.add cfg.spans ~tid:1 ~name:o.Campaign.id ~cat:"experiment" ~start:at
                     ~stop:(at +. o.Campaign.elapsed)
                     ~args:[ ("start", Json.String "laid out from outcome.elapsed") ]
                     ();
                   at +. o.Campaign.elapsed)
                 start r.Campaign.outcomes);
            one)
      in
      let ((_, w) as many) =
        Spans.with_span cfg.spans ~now ~name:"Campaign.run jobs=N" ~cat:"entry" (fun () ->
            run cores)
      in
      ((bad one + bad many, seq, many, w), one_report)
    in
    let traced = repeat ~seconds:half ~min_reps:1 traced_rep in
    let reps = List.map fst traced in
    let _, _, ((r : Campaign.report), _), _ = List.hd reps in
    let one = snd (List.hd traced) in
    let elapsed id =
      match
        List.find_opt (fun (o : Campaign.outcome) -> o.Campaign.id = id) one.Campaign.outcomes
      with
      | Some o -> o.Campaign.elapsed
      | None -> 0.0
    in
    let serial = one.Campaign.serial_seconds in
    let share ids = List.fold_left (fun acc id -> acc +. elapsed id) 0.0 ids /. serial in
    let util = r.Campaign.utilisation in
    {
      attempted = 2 * (List.length plain + List.length reps);
      failed = failed plain + failed reps;
      metrics =
        [
          ("runner.serial_s", serial);
          ("runner.speedup", r.Campaign.speedup);
          ( "runner.utilisation_mean",
            Array.fold_left ( +. ) 0.0 util /. float (max 1 (Array.length util)) );
        ]
        @ List.map (fun (layer, ids) -> ("runner.share_" ^ layer, share ids)) experiment_layers
        @ List.map (fun id -> ("exp." ^ id ^ "_s", elapsed id)) experiment_ids
        @ [ ("trace.overhead", overhead ~untraced:(1.0 /. wall plain) ~traced:(1.0 /. wall reps)) ];
    }
  end

(* ------------------------------------------------------- command line *)

let workloads =
  [
    ("grid-adaptive", grid_adaptive);
    ("grid-serve", grid_serve);
    ("mc-image", mc_image);
    ("mc-text", mc_text);
    ("campaign", campaign);
  ]

(* Complete an outcome to the full catalogue of its mode: metrics a
   workload does not exercise read 0 (per-layer only), and a missing or
   non-finite end-to-end figure fails the run. *)
let complete ~traced o =
  let catalogue = if traced then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name o.metrics with
    | Some v when Float.is_finite v -> Some v
    | Some _ -> None
    | None -> if traced then Some 0.0 else None
  in
  let missing = List.filter (fun (name, _, _) -> value name = None) catalogue in
  let metrics =
    List.map
      (fun (name, unit_, better) ->
        (name, unit_, better, Option.value (value name) ~default:0.0))
      catalogue
  in
  (metrics, List.map (fun (n, _, _) -> n) missing)

let run_one cfg ~out_dir name =
  let f = List.assoc name workloads in
  let origin_label = Printf.sprintf "%s seed=%d" name cfg.seed in
  let o =
    Spans.with_span cfg.spans ~now ~name:origin_label ~cat:"workload" (fun () -> f cfg)
  in
  let metrics, missing = complete ~traced:cfg.traced o in
  if missing <> [] then
    Printf.printf "# %s: missing or non-finite metrics: %s\n" name (String.concat ", " missing);
  Printf.printf "# %s  seed=%d  cores=%d  ocaml=%s  seconds=%g  trace=%d  attempted=%d  failed=%d\n"
    name cfg.seed cores Sys.ocaml_version cfg.seconds (Bool.to_int cfg.traced) o.attempted o.failed;
  List.iter
    (fun (m, unit_, better, v) ->
      Printf.printf "%-14s %-32s %18.6f %-12s (%s is better)\n" name m v unit_ (better_name better))
    metrics;
  let meta =
    [
      ("workload", Json.String name);
      ("seed", Json.Int cfg.seed);
      ("cores", Json.Int cores);
      ("ocaml", Json.String Sys.ocaml_version);
      ("seconds", Json.Float cfg.seconds);
      ("trace", Json.Bool cfg.traced);
    ]
  in
  (match out_dir with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let write file json =
        let oc = open_out (Filename.concat dir file) in
        output_string oc (Json.to_string json);
        output_char oc '\n';
        close_out oc
      in
      let base = Printf.sprintf "%s-seed%d-trace%d" name cfg.seed (Bool.to_int cfg.traced) in
      write (base ^ ".result.json")
        (Json.Obj
           (meta
           @ [
               ("attempted", Json.Int o.attempted);
               ("failed", Json.Int o.failed);
               ( "metrics",
                 Json.Obj
                   (List.map
                      (fun (m, unit_, better, v) ->
                        ( m,
                          Json.Obj
                            [
                              ("value", Json.Float v);
                              ("unit", Json.String unit_);
                              ("better", Json.String (better_name better));
                            ] ))
                      metrics) );
             ]));
      if cfg.traced then begin
        write (base ^ ".trace.json") (Spans.to_json cfg.spans ~meta);
        Printf.printf "# %s: %d spans written to %s\n" name (Spans.count cfg.spans)
          (Filename.concat dir (base ^ ".trace.json"))
      end);
  (o, metrics, missing = [])

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, unit_, _, v) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_ in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* Runs every workload at a tiny size, traced and untraced: each catalogue
   metric must appear, no check may fail, and a corrupted reference must be
   counted as failed operations. *)
let self_test ~seed =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let cfg traced corrupt =
    { seed; seconds = 0.05; traced; size = Tiny; corrupt; spans = Spans.create ~origin:(now ()) }
  in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun traced ->
          let o, metrics, complete = run_one (cfg traced false) ~out_dir:None name in
          if not complete then fail "%s trace=%b: incomplete metrics" name traced;
          if o.failed <> 0 then fail "%s trace=%b: %d failed operations" name traced o.failed;
          if (not traced) && List.exists (fun (_, _, _, v) -> v <= 0.0) metrics then
            fail "%s: an end-to-end metric is not positive" name)
        [ false; true ];
      let o, _, _ = run_one (cfg false true) ~out_dir:None name in
      if o.failed = 0 then fail "%s: corrupted reference not counted as failed" name)
    workloads;
  match !problems with
  | [] ->
      print_endline "# self-test passed";
      true
  | ps ->
      List.iter (fun p -> Printf.printf "# self-test FAILED: %s\n" p) (List.rev ps);
      false

let catalogue_json () =
  let entries l =
    Json.List
      (List.map
         (fun (name, unit_, better) ->
           Json.Obj
             [
               ("name", Json.String name);
               ("unit", Json.String unit_);
               ("better", Json.String (better_name better));
             ])
         l)
  in
  Json.Obj
    [
      ("workloads", Json.List (List.map (fun (n, _) -> Json.String n) workloads));
      ("end_to_end", entries end_to_end);
      ("per_layer", entries per_layer);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "perfbench/out" and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads, or 'all'");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out_dir, "DIR where result and trace files go");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " run every workload at a tiny size");
      ("--catalogue", Arg.Unit (fun () -> mode := `Catalogue), " print the metric catalogue as JSON");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !mode with
  | `Catalogue -> print_endline (Json.to_string (catalogue_json ()))
  | `Self_test -> if not (self_test ~seed:!seed) then exit 1
  | `Run ->
      let names =
        if !workload = "all" then List.map fst workloads
        else if List.mem_assoc !workload workloads then [ !workload ]
        else begin
          prerr_endline ("unknown workload: " ^ !workload ^ "\n" ^ usage);
          exit 2
        end
      in
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        exit 2
      end;
      let results =
        List.map
          (fun name ->
            let cfg =
              {
                seed = !seed;
                seconds = !seconds;
                traced = !trace = 1;
                size = Full;
                corrupt = false;
                spans = Spans.create ~origin:(now ());
              }
            in
            (name, run_one cfg ~out_dir:(Some !out_dir) name))
          names
      in
      let attempted = List.fold_left (fun acc (_, (o, _, _)) -> acc + o.attempted) 0 results in
      let failed = List.fold_left (fun acc (_, (o, _, _)) -> acc + o.failed) 0 results in
      let complete = List.for_all (fun (_, (_, _, c)) -> c) results in
      let metrics =
        match results with
        | [ (_, (_, m, _)) ] -> m
        | _ ->
            List.concat_map
              (fun (name, (_, m, _)) ->
                List.map (fun (k, u, b, v) -> (name ^ "." ^ k, u, b, v)) m)
              results
      in
      print_endline (result_line ~correct:(failed = 0 && complete) ~attempted ~failed metrics)
