(* Tests for the skeleton library: stage/stream descriptors, the simulation
   backend (including migration), bounded channels and typed pipelines. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Skel_sim = Aspipe_skel.Skel_sim
module Chan = Aspipe_skel.Chan
module Pipe = Aspipe_skel.Pipe
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------------------------------------------------------- Stage *)

let test_stage_balanced () =
  let stages = Stage.balanced ~n:3 ~work:2.0 () in
  Alcotest.(check int) "count" 3 (Array.length stages);
  Array.iter (fun s -> check_float "mean work" 2.0 (Stage.mean_work s)) stages

let test_stage_imbalanced () =
  let stages = Stage.imbalanced ~n:4 ~work:1.0 ~hot_stage:2 ~factor:5.0 () in
  check_float "hot stage" 5.0 (Stage.mean_work stages.(2));
  check_float "cold stage" 1.0 (Stage.mean_work stages.(0));
  Alcotest.check_raises "hot index out of range"
    (Invalid_argument "Stage.imbalanced: hot stage out of range") (fun () ->
      ignore (Stage.imbalanced ~n:2 ~work:1.0 ~hot_stage:5 ~factor:2.0 ()))

let test_stage_make_validation () =
  Alcotest.check_raises "negative size" (Invalid_argument "Stage.make: sizes must be non-negative")
    (fun () -> ignore (Stage.make ~output_bytes:(-1.0) ~work:(Variate.Constant 1.0) ()))

(* ---------------------------------------------------------- Stream_spec *)

let test_stream_immediate () =
  let spec = Stream_spec.make ~items:5 () in
  let times = Stream_spec.arrival_times spec (Rng.create 1) in
  Alcotest.(check (array (float 0.0))) "all at zero" (Array.make 5 0.0) times

let test_stream_spaced () =
  let spec = Stream_spec.make ~arrival:(Stream_spec.Spaced 0.5) ~items:4 () in
  let times = Stream_spec.arrival_times spec (Rng.create 1) in
  Alcotest.(check (array (float 1e-9))) "regular spacing" [| 0.0; 0.5; 1.0; 1.5 |] times

let test_stream_poisson_monotone () =
  let spec = Stream_spec.make ~arrival:(Stream_spec.Poisson 2.0) ~items:100 () in
  let times = Stream_spec.arrival_times spec (Rng.create 2) in
  Alcotest.(check int) "count" 100 (Array.length times);
  Array.iteri
    (fun i t ->
      if i > 0 && t < times.(i - 1) then Alcotest.fail "arrivals must be non-decreasing";
      if t <= 0.0 then Alcotest.fail "arrivals must be positive")
    times

let test_stream_invalid () =
  Alcotest.check_raises "items 0" (Invalid_argument "Stream_spec.make: items must be positive")
    (fun () -> ignore (Stream_spec.make ~items:0 ()));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Stream_spec.make: Poisson rate must be positive") (fun () ->
      ignore (Stream_spec.make ~arrival:(Stream_spec.Poisson 0.0) ~items:1 ()))

(* ------------------------------------------------------------- Skel_sim *)

(* A tiny world: [n] nodes at speed 10, negligible network. *)
let quiet_topo ?(n = 3) engine =
  Topology.uniform engine ~n ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 ()

let run_sim ?(n = 3) ?(items = 10) ?arrival ~stages ~mapping () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n engine in
  let input = Stream_spec.make ?arrival ~items ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping ~input ~trace () in
  Skel_sim.run_to_completion sim;
  (sim, trace)

let test_sim_all_items_complete () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let sim, trace = run_sim ~items:20 ~stages ~mapping:[| 0; 1; 2 |] () in
  Alcotest.(check bool) "finished" true (Skel_sim.finished sim);
  Alcotest.(check int) "all items out" 20 (Trace.items_completed trace)

let test_sim_fifo_output () =
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, trace = run_sim ~items:15 ~stages ~mapping:[| 0; 1 |] () in
  let items = Array.map fst (Trace.completions trace) in
  Alcotest.(check (array int)) "items depart in order" (Array.init 15 Fun.id) items

let test_sim_conservation () =
  let stages = Stage.balanced ~n:4 ~work:0.5 () in
  let _, trace = run_sim ~items:12 ~stages ~mapping:[| 0; 1; 2; 0 |] () in
  Alcotest.(check int) "services = items x stages" (12 * 4) (List.length (Trace.services trace));
  Alcotest.(check int) "transfers = items x (stages-1)" (12 * 3)
    (List.length (Trace.transfers trace))

let test_sim_services_respect_mapping () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let mapping = [| 2; 0; 2 |] in
  let _, trace = run_sim ~items:5 ~stages ~mapping () in
  List.iter
    (fun (s : Trace.service) ->
      Alcotest.(check int)
        (Printf.sprintf "stage %d on its mapped node" s.Trace.stage)
        mapping.(s.Trace.stage) s.Trace.node)
    (Trace.services trace)

let test_sim_single_stage_makespan () =
  (* 10 items of work 5 on a speed-10 node: 0.5 s each, serialized. *)
  let stages = [| Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 5.0) () |] in
  let _, trace = run_sim ~n:1 ~items:10 ~stages ~mapping:[| 0 |] () in
  check_close ~eps:0.01 "makespan ~ items x service" 5.0 (Trace.makespan trace)

let test_sim_colocation_halves_throughput () =
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, spread = run_sim ~items:60 ~stages ~mapping:[| 0; 1 |] () in
  let _, packed = run_sim ~items:60 ~stages ~mapping:[| 0; 0 |] () in
  let ratio = Trace.makespan packed /. Trace.makespan spread in
  Alcotest.(check bool)
    (Printf.sprintf "colocated run ~2x slower (ratio %.2f)" ratio)
    true
    (ratio > 1.7 && ratio < 2.3)

let test_sim_slow_link_throttles () =
  (* Blocking output moves: a 0.3 s link inflates the stage cycle to
     0.1 + 0.3 = 0.4 s -> throughput 2.5/s instead of 10/s. *)
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.3 ~bandwidth:1e9 () in
  let stages = Stage.balanced ~n:2 ~work:1.0 ~output_bytes:10.0 () in
  let input = Stream_spec.make ~items:50 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace () in
  Skel_sim.run_to_completion sim;
  let throughput = Trace.throughput_after trace (0.1 *. Trace.makespan trace) in
  check_close ~eps:0.2 "cycle-limited throughput" 2.5 throughput

let test_sim_availability_step_slows_run () =
  let run ~with_load =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:2 engine in
    if with_load then
      ignore
        (Engine.schedule engine ~delay:1.0 (fun () ->
             Node.set_availability (Topology.node topo 0) 0.25));
    let stages = Stage.balanced ~n:2 ~work:1.0 () in
    let input = Stream_spec.make ~items:40 ~item_bytes:10.0 () in
    let trace = Trace.create () in
    let sim =
      Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace ()
    in
    Skel_sim.run_to_completion sim;
    Trace.makespan trace
  in
  let clean = run ~with_load:false and loaded = run ~with_load:true in
  Alcotest.(check bool)
    (Printf.sprintf "background load slows the run (%.2f vs %.2f)" clean loaded)
    true (loaded > 2.0 *. clean)

let test_sim_remap_moves_services () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:2 engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 ~state_bytes:100.0 () in
  let input = Stream_spec.make ~items:30 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 0 |] ~input ~trace () in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ignore (Skel_sim.remap sim [| 0; 1 |])));
  Skel_sim.run_to_completion sim;
  Alcotest.(check (array int)) "mapping updated" [| 0; 1 |] (Skel_sim.mapping sim);
  Alcotest.(check int) "all items complete across the migration" 30 (Trace.items_completed trace);
  let stage1_nodes =
    List.filter_map
      (fun (s : Trace.service) -> if s.Trace.stage = 1 then Some s.Trace.node else None)
      (Trace.services trace)
  in
  Alcotest.(check bool) "served on old node first" true (List.mem 0 stage1_nodes);
  Alcotest.(check bool) "served on new node later" true (List.mem 1 stage1_nodes);
  let items = Array.map fst (Trace.completions trace) in
  Alcotest.(check (array int)) "order preserved" (Array.init 30 Fun.id) items

let test_sim_remap_same_mapping_free () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  ignore engine;
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:5 ~item_bytes:10.0 () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input
      ~trace:(Trace.create ()) ()
  in
  check_float "no bytes move" 0.0 (Skel_sim.remap sim [| 0; 1 |]);
  Alcotest.(check bool) "not migrating" false (Skel_sim.migrating sim)

let test_sim_remap_while_migrating_rejected () =
  let engine = Engine.create () in
  (* A slow link so the migration is still in flight when we re-remap. *)
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:5.0 ~bandwidth:1e3 () in
  let stages = Stage.balanced ~n:2 ~work:1.0 ~state_bytes:1e4 () in
  let input = Stream_spec.make ~items:5 ~item_bytes:10.0 () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 0 |] ~input
      ~trace:(Trace.create ()) ()
  in
  ignore (Skel_sim.remap sim [| 0; 1 |]);
  Alcotest.(check bool) "migration in flight" true (Skel_sim.migrating sim);
  Alcotest.check_raises "double migration rejected"
    (Invalid_argument "Skel_sim.remap: stage already migrating") (fun () ->
      ignore (Skel_sim.remap sim [| 0; 0 |]))

let test_sim_invalid_mapping () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:1 () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Skel_sim: mapping length must equal stage count") (fun () ->
      ignore
        (Skel_sim.create ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0 |] ~input
           ~trace:(Trace.create ()) ()));
  Alcotest.check_raises "unknown node" (Invalid_argument "Skel_sim: mapping names an unknown node")
    (fun () ->
      ignore
        (Skel_sim.create ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0; 9 |] ~input
           ~trace:(Trace.create ()) ()))

let test_sim_deterministic () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let _, t1 = run_sim ~items:25 ~stages ~mapping:[| 0; 1; 2 |] () in
  let _, t2 = run_sim ~items:25 ~stages ~mapping:[| 0; 1; 2 |] () in
  check_float "same seed, same makespan" (Trace.makespan t1) (Trace.makespan t2)

let test_sim_spaced_arrivals_pace_output () =
  (* Arrivals slower than the service rate: output paced by arrivals. *)
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, trace =
    run_sim ~items:20 ~arrival:(Stream_spec.Spaced 1.0) ~stages ~mapping:[| 0; 1 |] ()
  in
  check_close ~eps:0.1 "makespan tracks the arrival process" 19.2 (Trace.makespan trace)

let test_sim_execute_oneshot () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let trace =
    Skel_sim.execute ~topo ~stages ~mapping:[| 0; 1 |]
      ~input:(Stream_spec.make ~items:8 ~item_bytes:10.0 ())
      ()
  in
  Alcotest.(check int) "one-shot runs to completion" 8 (Trace.items_completed trace)



let test_sim_total_starvation_and_recovery () =
  (* The node feeding the pipeline loses its CPU entirely for 10 s; the
     in-flight service must freeze (not finish at a bogus time) and every
     item must still drain after recovery. *)
  let engine = Engine.create () in
  let topo = quiet_topo ~n:2 engine in
  ignore
    (Engine.schedule engine ~delay:0.55 (fun () ->
         Node.set_availability (Topology.node topo 0) 0.0));
  ignore
    (Engine.schedule engine ~delay:10.55 (fun () ->
         Node.set_availability (Topology.node topo 0) 1.0));
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:10 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace () in
  Skel_sim.run_to_completion sim;
  Alcotest.(check int) "all items survive the outage" 10 (Trace.items_completed trace);
  (* Without the outage the run takes ~1.2 s; with it, at least the 10 s gap. *)
  Alcotest.(check bool) "makespan includes the stall" true (Trace.makespan trace > 10.0);
  Alcotest.(check bool) "but not much more" true (Trace.makespan trace < 13.0)

let test_sim_conservation_under_random_dynamics =
  qtest ~count:25 "no item is ever lost, duplicated or reordered"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let engine = Engine.create () in
      let topo = quiet_topo ~n:3 engine in
      (* Random availability churn on every node. *)
      for node = 0 to 2 do
        Aspipe_grid.Loadgen.apply_until ~rng:(Rng.split rng) ~horizon:50.0 topo node
          (Aspipe_grid.Loadgen.Random_walk { every = 0.5; sigma = 0.2; lo = 0.05; hi = 1.0 })
      done;
      let stages = Stage.balanced ~n:3 ~work:0.5 () in
      let items = 30 in
      let input = Stream_spec.make ~items ~item_bytes:10.0 () in
      let trace = Trace.create () in
      let sim =
        Skel_sim.create ~rng:(Rng.split rng) ~topo ~stages ~mapping:[| 0; 1; 2 |] ~input ~trace ()
      in
      (* And a random remap mid-flight. *)
      ignore
        (Engine.schedule engine ~delay:1.0 (fun () ->
             if not (Skel_sim.migrating sim) then
               ignore (Skel_sim.remap sim [| 2; 1; 0 |])));
      Skel_sim.run_to_completion sim;
      Trace.items_completed trace = items
      && Array.map fst (Trace.completions trace) = Array.init items Fun.id
      && List.length (Trace.services trace) = items * 3)

(* ------------------------------------------------------- bounded buffers *)

let test_sim_buffer_capacity_validated () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:1 () in
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Skel_sim: queue capacity must be at least 1") (fun () ->
      ignore
        (Skel_sim.create ~queue_capacity:0 ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0; 1 |]
           ~input ~trace:(Trace.create ()) ()))

let buffered_makespan capacity =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:3 engine in
  (* Bursty middle stage so buffering matters. *)
  let stages =
    [|
      Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 1.0) ();
      Stage.make ~output_bytes:10.0 ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ();
      Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 1.0) ();
    |]
  in
  let input = Stream_spec.make ~items:200 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ?queue_capacity:capacity ~rng:(Rng.create 5) ~topo ~stages
      ~mapping:[| 0; 1; 2 |] ~input ~trace ()
  in
  Skel_sim.run_to_completion sim;
  Alcotest.(check int) "all items complete" 200 (Trace.items_completed trace);
  Trace.makespan trace

let test_sim_buffer_monotone () =
  (* Work draws are keyed on item identity, so a bigger buffer can only help:
     makespans must be non-increasing in capacity. *)
  let m1 = buffered_makespan (Some 1) in
  let m4 = buffered_makespan (Some 4) in
  let unbounded = buffered_makespan None in
  Alcotest.(check bool)
    (Printf.sprintf "cap1 %.2f >= cap4 %.2f >= unbounded %.2f" m1 m4 unbounded)
    true
    (m1 >= m4 -. 1e-9 && m4 >= unbounded -. 1e-9);
  Alcotest.(check bool) "buffers actually matter on bursty stages" true
    (m1 > unbounded *. 1.02)

let test_sim_work_draws_paired_across_mappings () =
  (* The same item must cost the same under different mappings. *)
  let run mapping =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:3 engine in
    let stages = [| Stage.make ~work:(Variate.Exponential { rate = 1.0 }) () |] in
    let input = Stream_spec.make ~items:20 ~item_bytes:10.0 () in
    let trace = Trace.create () in
    let sim = Skel_sim.create ~rng:(Rng.create 9) ~topo ~stages ~mapping ~input ~trace () in
    Skel_sim.run_to_completion sim;
    List.map
      (fun (s : Trace.service) -> (s.Trace.item, s.Trace.finish -. s.Trace.start))
      (Trace.services trace)
    |> List.sort compare
  in
  Alcotest.(check bool) "identical per-item service durations" true
    (run [| 0 |] = run [| 2 |])

(* ------------------------------------------------- Skel_sim replica sets *)

(* Each test below takes its pipeline as an argument: it runs on deep
   pipelines and, as an extra input, on a task farm — one task replicated
   over a worker set, the one-stage replicated pipeline. *)

let farm () =
  [| Stage.make ~name:"task" ~output_bytes:10.0 ~state_bytes:0.0 ~work:(Variate.Constant 1.0) () |]

let repl_topo ?(speeds = Array.make 6 10.0) engine =
  Topology.heterogeneous engine ~speeds ~latency:1e-4 ~bandwidth:1e9 ()

(* Unequal links, for the order checks. Here a move between two nodes takes
   0.01 s, and one within a node the local link's 1e-4 s. *)
let wan_topo engine =
  Topology.heterogeneous engine ~speeds:(Array.make 6 10.0) ~latency:0.01 ~bandwidth:1e9 ()

let two_site_topo engine =
  Topology.two_site engine ~site_a:(Array.make 3 10.0) ~site_b:(Array.make 3 10.0)
    ~intra_latency:1e-3 ~intra_bandwidth:1e9 ~inter_latency:0.05 ~inter_bandwidth:1e6 ()

(* One slow link, 2 s from node 1 to node 3, and user links of [user] s;
   every other link takes 1e-3 s. A move over a slow link lands after moves
   started later over fast ones. *)
let slow_link_topo ?(user = 1e-3) engine =
  Topology.custom engine
    ~nodes:(Array.init 6 (fun id -> Node.create engine ~id ~speed:10.0 ()))
    ~links:(fun ~src ~dst ->
      Aspipe_grid.Link.create engine
        ~latency:(if src = 1 && dst = 3 then 2.0 else 1e-3)
        ~bandwidth:1e9 ())
    ~user_links:(fun _ -> Aspipe_grid.Link.create engine ~latency:user ~bandwidth:1e9 ())

(* Replication enters through the placement: each stage starts on its
   set's first node and is widened to the set before anything runs. *)
let create_repl ?(items = 40) ?arrival ?dispatch ?speeds ?(topo = repl_topo ?speeds) ~stages
    ~replicas engine =
  let input = Stream_spec.make ?arrival ~items ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ?dispatch ~trace ~rng:(Rng.create 11) ~topo:(topo engine)
      ~stages
      ~mapping:(Array.map List.hd replicas)
      ~input ()
  in
  Skel_sim.set_replicas sim replicas;
  (sim, trace)

let run_repl ?items ?dispatch ?speeds ?topo ~stages ~replicas () =
  let sim, trace =
    create_repl ?items ?dispatch ?speeds ?topo ~stages ~replicas (Engine.create ())
  in
  Skel_sim.run_to_completion sim;
  trace

(* One replica per stage: every service on its stage's node, in order, and
   the makespan of a unit-work pipeline — (items + stages − 1) periods. *)
let test_repl_single_replicas ~stages ~replicas ~items () =
  let trace = run_repl ~items ~stages ~replicas () in
  Alcotest.(check (array int)) "ordered output" (Array.init items Fun.id)
    (Array.map fst (Trace.completions trace));
  Alcotest.(check int) "items x stages services" (items * Array.length stages)
    (List.length (Trace.services trace));
  List.iter
    (fun (s : Trace.service) ->
      Alcotest.(check int) "served on its replica" (List.hd replicas.(s.stage)) s.node)
    (Trace.services trace);
  Alcotest.(check (float 0.1)) "serialized makespan"
    (0.1 *. Float.of_int (items + Array.length stages - 1))
    (Trace.makespan trace)

(* An all-singleton placement given through the replica path reproduces
   the plain [~mapping] run event for event — also after a stage was
   widened and shrunk back before the run. *)
let test_repl_singletons_equal_mapping ~stages ~mapping () =
  let stream place =
    let engine = Engine.create () in
    let buffer = Buffer.create 65536 in
    ignore (Aspipe_obs.Bus.subscribe (Engine.bus engine) (Aspipe_obs.Jsonl.sink_to_buffer buffer));
    let sim =
      Skel_sim.create ~rng:(Rng.create 5) ~topo:(repl_topo engine) ~stages ~mapping
        ~input:(Stream_spec.make ~items:30 ~item_bytes:10.0 ())
        ()
    in
    place sim;
    Skel_sim.run_to_completion sim;
    Digest.to_hex (Digest.string (Buffer.contents buffer))
  in
  let singletons = Array.map (fun n -> [ n ]) mapping in
  let plain = stream ignore in
  Alcotest.(check string) "singleton sets" plain
    (stream (fun sim -> Skel_sim.set_replicas sim singletons));
  Alcotest.(check string) "widened and shrunk back" plain
    (stream (fun sim ->
         Skel_sim.set_replicas sim
           (Array.mapi (fun i n -> if i = 1 then [ n; 5 ] else [ n ]) mapping);
         Skel_sim.set_replicas sim singletons))

let test_repl_hot_stage_speedup () =
  let stages = Stage.imbalanced ~n:3 ~work:1.0 ~hot_stage:1 ~factor:4.0 () in
  let plain = run_repl ~items:80 ~stages ~replicas:[| [ 0 ]; [ 1 ]; [ 2 ] |] () in
  let replicated = run_repl ~items:80 ~stages ~replicas:[| [ 0 ]; [ 1; 3; 4; 5 ]; [ 2 ] |] () in
  let speedup = Trace.makespan plain /. Trace.makespan replicated in
  Alcotest.(check bool)
    (Printf.sprintf "4 replicas of the 4x stage give ~4x (got %.2fx)" speedup)
    true
    (speedup > 3.0 && speedup < 4.5)

(* How [stage]'s services split over its replicas: within [tol] of
   [expected] items each. *)
let test_repl_shares ?dispatch ?speeds ~stages ~replicas ~items ~stage ~expected ~tol () =
  let trace = run_repl ~items ?dispatch ?speeds ~stages ~replicas () in
  let served node =
    List.length
      (List.filter
         (fun (s : Trace.service) -> s.stage = stage && s.node = node)
         (Trace.services trace))
  in
  List.iter2
    (fun node want ->
      let got = served node in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d served %d items (want %d +- %d)" node got want tol)
        true
        (abs (got - want) <= tol))
    replicas.(stage) expected

(* Completion order is the input order, and so are the completion stamps. *)
let test_repl_order_restored ?dispatch ?speeds ?topo ~stages ~replicas ~items () =
  let trace = run_repl ~items ?dispatch ?speeds ?topo ~stages ~replicas () in
  Alcotest.(check (array int)) "order restored" (Array.init items Fun.id)
    (Array.map fst (Trace.completions trace));
  let times = Array.map snd (Trace.completions trace) in
  Array.iteri
    (fun i t ->
      if i > 0 && t < times.(i - 1) -. 1e-12 then
        Alcotest.fail "ordered emission must have non-decreasing timestamps")
    times

let test_repl_validation ~stages ~bad () =
  let sim =
    Skel_sim.create ~rng:(Rng.create 1)
      ~topo:(repl_topo ~speeds:[| 10.0; 10.0 |] (Engine.create ()))
      ~stages
      ~mapping:(Array.make (Array.length stages) 0)
      ~input:(Stream_spec.make ~items:1 ())
      ~trace:(Trace.create ()) ()
  in
  List.iter
    (fun (replicas, message) ->
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          Skel_sim.set_replicas sim replicas))
    bad

(* Re-shape the replica sets at t = 4 s of a 10 s paced stream: the new sets
   take effect, no item is lost, the order holds, no move between stages is
   traced twice or from a stage that has no successor, and [stage] served
   items on the old set before the switch and on the new set after it. *)
let test_repl_set_replicas_mid_run ?dispatch ?topo ~stages ~before ~after ~stage () =
  let engine = Engine.create () in
  let sim, trace =
    create_repl ~items:50 ~arrival:(Stream_spec.Spaced 0.2) ?dispatch ?topo ~stages
      ~replicas:before engine
  in
  ignore (Engine.schedule engine ~delay:4.0 (fun () -> Skel_sim.set_replicas sim after));
  Skel_sim.run_to_completion sim;
  Alcotest.(check (array (list int))) "replica sets replaced" after (Skel_sim.replicas sim);
  Alcotest.(check (array int)) "all items out, in order" (Array.init 50 Fun.id)
    (Array.map fst (Trace.completions trace));
  let moves = List.map (fun (x : Trace.transfer) -> (x.from_stage, x.item)) (Trace.transfers trace) in
  List.iter
    (fun (from_stage, item) ->
      if from_stage < 0 || from_stage >= Array.length stages - 1 then
        Alcotest.failf "item %d's move traced from stage %d" item from_stage)
    moves;
  Alcotest.(check int) "no move traced twice" (List.length moves)
    (List.length (List.sort_uniq compare moves));
  let served nodes when_ =
    List.exists
      (fun (s : Trace.service) -> s.stage = stage && List.mem s.node nodes && when_ s.start)
      (Trace.services trace)
  in
  Alcotest.(check bool) "early work on the old set" true (served before.(stage) (fun t -> t < 4.0));
  Alcotest.(check bool) "late work on the new set" true (served after.(stage) (fun t -> t > 6.0))

(* Sampled during the run, no replica of any stage holds more than the
   window (2) under the least-loaded deal. *)
let test_repl_outstanding_bounds ~stages ~replicas () =
  let engine = Engine.create () in
  let sim, _ = create_repl ~dispatch:Skel_sim.Least_loaded ~stages ~replicas engine in
  Engine.periodic engine ~every:0.05 (fun () ->
      Array.iteri
        (fun stage nodes ->
          List.iter
            (fun node ->
              if Skel_sim.outstanding sim ~stage node > 2 then Alcotest.fail "window exceeded")
            nodes)
        replicas;
      not (Skel_sim.finished sim));
  Skel_sim.run_to_completion sim;
  Alcotest.check_raises "outstanding bounds" (Invalid_argument "Skel_sim.outstanding")
    (fun () -> ignore (Skel_sim.outstanding sim ~stage:0 9))

(* A last stage holds its node until its output lands at the user: on one
   node the synchronous move does it, so a 0.1 s service and a 0.1 s send
   per item never overlap — 10 items take 2 s, not 1.1 s. *)
let test_repl_last_stage_holds_slot_until_sent () =
  let topo =
    Topology.uniform (Engine.create ()) ~n:1 ~speed:10.0 ~latency:1e-6 ~bandwidth:100.0 ()
  in
  let stages = [| Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 1.0) () |] in
  let trace =
    Skel_sim.execute ~topo ~stages ~mapping:[| 0 |]
      ~input:(Stream_spec.make ~items:10 ~item_bytes:0.0 ())
      ()
  in
  Alcotest.(check (float 0.01)) "service and send serialized" 2.0 (Trace.makespan trace)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* A replicated run cut short stalls with a report naming the replica set,
   its per-replica outstanding counts, deal queue and reorder buffer. *)
let test_repl_stall_report ~stages ~replicas () =
  let sim, _ = create_repl ~items:40 ~stages ~replicas (Engine.create ()) in
  match Skel_sim.run ~max_time:0.5 sim with
  | `Completed -> Alcotest.fail "a 0.5 s budget cannot drain 40 items"
  | `Stalled message ->
      let set = "{" ^ String.concat "," (List.map string_of_int replicas.(1)) ^ "}" in
      List.iter
        (fun needle ->
          if not (contains message needle) then
            Alcotest.failf "stall report lacks %S:\n%s" needle message)
        [ "exceeded max_time"; "on replicas " ^ set; "outstanding "; "awaiting a deal";
          "in the reorder buffer" ]

let hot_pipeline () = Stage.imbalanced ~n:2 ~work:1.0 ~hot_stage:1 ~factor:3.0 ()

let heavy_tailed_pipeline () =
  [|
    Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 0.1) ();
    Stage.make ~output_bytes:10.0 ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ();
  |]

(* The heavy-tailed stage in the interior, feeding a one-node stage. *)
let heavy_tailed_interior () =
  Array.append (heavy_tailed_pipeline ())
    [| Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 0.1) () |]

let hot_interior () = Stage.imbalanced ~n:3 ~work:1.0 ~hot_stage:1 ~factor:3.0 ()

let replica_set_cases =
  [
    Alcotest.test_case "single replica = pipeline" `Quick
      (test_repl_single_replicas ~stages:(Stage.balanced ~n:3 ~work:1.0 ())
         ~replicas:[| [ 0 ]; [ 1 ]; [ 2 ] |] ~items:40);
    Alcotest.test_case "singleton sets = mapping, event for event" `Quick
      (test_repl_singletons_equal_mapping ~stages:(Stage.balanced ~n:3 ~work:1.0 ())
         ~mapping:[| 0; 1; 2 |]);
    Alcotest.test_case "hot stage speedup" `Quick test_repl_hot_stage_speedup;
    Alcotest.test_case "replicas all used" `Quick
      (test_repl_shares ~stages:(hot_pipeline ()) ~replicas:[| [ 0 ]; [ 1; 2; 3 ] |] ~items:60
         ~stage:1 ~expected:[ 20; 20; 20 ] ~tol:5);
    Alcotest.test_case "order restored" `Quick (fun () ->
        test_repl_order_restored ~stages:(heavy_tailed_pipeline ())
          ~replicas:[| [ 0 ]; [ 1; 2; 3; 4 ] |] ~items:100 ();
        (* A replicated interior stage feeding a one-node stage over
           unequal links: the replica on the receiver's node sends fastest. *)
        test_repl_order_restored ~topo:wan_topo ~stages:(heavy_tailed_interior ())
          ~replicas:[| [ 0 ]; [ 1; 2 ]; [ 2 ] |] ~items:100 ();
        test_repl_order_restored ~topo:two_site_topo ~stages:(heavy_tailed_interior ())
          ~replicas:[| [ 0 ]; [ 1; 3; 4 ]; [ 2 ] |] ~items:100 ());
    Alcotest.test_case "validation" `Quick
      (test_repl_validation ~stages:(Stage.balanced ~n:2 ~work:1.0 ())
         ~bad:
           [
             ([| [ 0 ] |], "Skel_sim: one replica set per stage required");
             ([| [ 0 ]; [] |], "Skel_sim: empty replica set");
             ([| [ 0 ]; [ 9 ] |], "Skel_sim: unknown replica node");
           ]);
    Alcotest.test_case "set replicas mid-run" `Quick (fun () ->
        test_repl_set_replicas_mid_run ~stages:(hot_pipeline ()) ~before:[| [ 0 ]; [ 1 ] |]
          ~after:[| [ 0 ]; [ 1; 2; 3 ] |] ~stage:1 ();
        test_repl_set_replicas_mid_run ~stages:(hot_pipeline ())
          ~before:[| [ 0 ]; [ 1; 2; 3 ] |] ~after:[| [ 0 ]; [ 2 ] |] ~stage:1 ();
        (* Stage 1 feeds a one-node stage; its output from node 1 takes 2 s,
           from node 2 far less. Widening at t = 4 s, while a move from
           node 1 is in flight, must not let node 2 overtake it, and neither
           must shrinking to node 2. *)
        test_repl_set_replicas_mid_run ~topo:slow_link_topo ~stages:(hot_interior ())
          ~before:[| [ 0 ]; [ 1 ]; [ 3 ] |] ~after:[| [ 0 ]; [ 1; 2 ]; [ 3 ] |] ~stage:1 ();
        test_repl_set_replicas_mid_run ~topo:slow_link_topo ~stages:(hot_interior ())
          ~before:[| [ 0 ]; [ 1; 2 ]; [ 3 ] |] ~after:[| [ 0 ]; [ 2 ]; [ 3 ] |] ~stage:1 ());
    Alcotest.test_case "outstanding bounded by window" `Quick
      (test_repl_outstanding_bounds ~stages:(hot_pipeline ()) ~replicas:[| [ 0 ]; [ 1; 2 ] |]);
    Alcotest.test_case "last stage holds its slot until sent" `Quick
      test_repl_last_stage_holds_slot_until_sent;
    Alcotest.test_case "stall report names the replica set" `Quick
      (test_repl_stall_report ~stages:(hot_pipeline ()) ~replicas:[| [ 0 ]; [ 1; 2; 3 ] |]);
  ]

(* The farm inputs. The group keeps its name from before the farm engine was
   folded into the pipeline simulator, so these test IDs stay stable. *)
let farm_sim_cases =
  let rr = Skel_sim.Round_robin and ll = Skel_sim.Least_loaded in
  [
    Alcotest.test_case "ordered completion" `Quick
      (test_repl_order_restored ~dispatch:rr ~stages:(farm ()) ~replicas:[| [ 0; 1 ] |] ~items:40);
    Alcotest.test_case "round-robin shares" `Quick
      (test_repl_shares ~dispatch:rr ~stages:(farm ()) ~replicas:[| [ 0; 1 ] |] ~items:40 ~stage:0
         ~expected:[ 20; 20 ] ~tol:0);
    (* Node 0 is 4x faster: demand-driven dealing gives it ~4x the work. *)
    Alcotest.test_case "least-loaded proportional" `Quick
      (test_repl_shares ~dispatch:ll ~speeds:[| 40.0; 10.0 |] ~stages:(farm ())
         ~replicas:[| [ 0; 1 ] |] ~items:200 ~stage:0 ~expected:[ 160; 40 ] ~tol:11);
    Alcotest.test_case "single worker" `Quick
      (test_repl_single_replicas ~stages:(farm ()) ~replicas:[| [ 1 ] |] ~items:30);
    Alcotest.test_case "set workers mid-run" `Quick (fun () ->
        test_repl_set_replicas_mid_run ~dispatch:rr ~stages:(farm ()) ~before:[| [ 0 ] |]
          ~after:[| [ 1; 2 ] |] ~stage:0 ();
        (* A slow first worker has a queue when the farm widens. *)
        test_repl_set_replicas_mid_run ~dispatch:rr
          ~topo:(repl_topo ~speeds:[| 4.0; 10.0; 10.0 |])
          ~stages:(farm ()) ~before:[| [ 0 ] |] ~after:[| [ 1; 2 ] |] ~stage:0 ();
        (* A 1 s user link has five arrivals in flight when the farm widens;
           later ones must not overtake them. *)
        test_repl_set_replicas_mid_run ~dispatch:rr ~topo:(slow_link_topo ~user:1.0)
          ~stages:(farm ()) ~before:[| [ 0 ] |] ~after:[| [ 1; 2 ] |] ~stage:0 ());
    Alcotest.test_case "validation" `Quick
      (test_repl_validation ~stages:(farm ())
         ~bad:
           [
             ([| [] |], "Skel_sim: empty replica set");
             ([| [ 7 ] |], "Skel_sim: unknown replica node");
           ]);
    Alcotest.test_case "outstanding bounded by window" `Quick
      (test_repl_outstanding_bounds ~stages:(farm ()) ~replicas:[| [ 0; 1 ] |]);
    Alcotest.test_case "emission times non-decreasing" `Quick
      (test_repl_order_restored ~dispatch:ll ~speeds:[| 30.0; 10.0 |] ~stages:(farm ())
         ~replicas:[| [ 0; 1 ] |] ~items:100);
  ]

(* ----------------------------------------------------------------- Chan *)

let test_chan_fifo () =
  let c = Chan.create ~capacity:10 in
  List.iter (Chan.send c) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Chan.length c);
  Alcotest.(check (list (option int))) "fifo recv" [ Some 1; Some 2; Some 3 ]
    (List.init 3 (fun _ -> Chan.recv c))

let test_chan_close_semantics () =
  let c = Chan.create ~capacity:4 in
  Chan.send c 1;
  Chan.close c;
  Chan.close c (* idempotent *);
  Alcotest.(check bool) "closed" true (Chan.is_closed c);
  Alcotest.(check (option int)) "drains after close" (Some 1) (Chan.recv c);
  Alcotest.(check (option int)) "then None" None (Chan.recv c);
  Alcotest.check_raises "send after close" Chan.Closed (fun () -> Chan.send c 2)

let test_chan_try_recv () =
  let c = Chan.create ~capacity:2 in
  Alcotest.(check (option int)) "empty" None (Chan.try_recv c);
  Chan.send c 7;
  Alcotest.(check (option int)) "non-blocking hit" (Some 7) (Chan.try_recv c)

let test_chan_capacity_validation () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Chan.create: capacity must be positive")
    (fun () -> ignore (Chan.create ~capacity:0 : int Chan.t))

let test_chan_backpressure_across_domains () =
  (* Producer sends 1000 ints through a capacity-2 channel; consumer domain
     reads them all: blocking send/recv must neither deadlock nor drop. *)
  let c = Chan.create ~capacity:2 in
  let consumer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Chan.recv c with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        drain [])
  in
  for i = 1 to 1000 do
    Chan.send c i
  done;
  Chan.close c;
  let received = Domain.join consumer in
  Alcotest.(check int) "all delivered" 1000 (List.length received);
  Alcotest.(check (list int)) "in order (first 5)" [ 1; 2; 3; 4; 5 ]
    (List.filteri (fun i _ -> i < 5) received)

(* ----------------------------------------------------------------- Pipe *)

let test_pipe_apply () =
  let open Pipe in
  let p = (fun x -> x + 1) @> (fun x -> x * 2) @> last string_of_int in
  Alcotest.(check string) "sequential semantics" "8" (apply p 3);
  Alcotest.(check int) "length" 3 (length p)

let test_pipe_fuse_identity () =
  let open Pipe in
  let p = (fun x -> x + 1) @> last (fun x -> x * 3) in
  let fused = fuse_groups [| 0; 1 |] p in
  Alcotest.(check int) "distinct groups keep stages" 2 (length fused);
  Alcotest.(check int) "same result" (apply p 5) (apply fused 5)

let test_pipe_fuse_all () =
  let open Pipe in
  let p = (fun x -> x + 1) @> (fun x -> x * 2) @> last (fun x -> x - 3) in
  let fused = fuse_groups [| 0; 0; 0 |] p in
  Alcotest.(check int) "all collapse to one stage" 1 (length fused);
  Alcotest.(check int) "same result" (apply p 10) (apply fused 10)

let test_pipe_fuse_validation () =
  let open Pipe in
  let p = (fun x -> x + 1) @> last (fun x -> x * 2) in
  Alcotest.check_raises "wrong count" (Invalid_argument "Pipe.fuse_groups: wrong group count")
    (fun () -> ignore (fuse_groups [| 0 |] p));
  Alcotest.check_raises "decreasing groups"
    (Invalid_argument "Pipe.fuse_groups: groups must be non-decreasing") (fun () ->
      ignore (fuse_groups [| 1; 0 |] p))

let test_pipe_fuse_equivalence =
  qtest "fusing never changes the function"
    QCheck2.Gen.(pair (list_size (int_range 0 20) int) (int_range 1 4))
    (fun (xs, groups) ->
      let open Pipe in
      let p =
        (fun x -> x + 1) @> (fun x -> x * 2) @> (fun x -> x - 1) @> last (fun x -> x mod 1000)
      in
      let g = Array.init 4 (fun i -> min (groups - 1) (i * groups / 4)) in
      let fused = fuse_groups g p in
      List.for_all (fun x -> apply p x = apply fused x) xs)

let () =
  Alcotest.run "aspipe_skel"
    [
      ( "stage",
        [
          Alcotest.test_case "balanced" `Quick test_stage_balanced;
          Alcotest.test_case "imbalanced" `Quick test_stage_imbalanced;
          Alcotest.test_case "validation" `Quick test_stage_make_validation;
        ] );
      ( "stream",
        [
          Alcotest.test_case "immediate" `Quick test_stream_immediate;
          Alcotest.test_case "spaced" `Quick test_stream_spaced;
          Alcotest.test_case "poisson" `Quick test_stream_poisson_monotone;
          Alcotest.test_case "invalid" `Quick test_stream_invalid;
        ] );
      ( "skel_sim",
        [
          Alcotest.test_case "all items complete" `Quick test_sim_all_items_complete;
          Alcotest.test_case "fifo output" `Quick test_sim_fifo_output;
          Alcotest.test_case "conservation" `Quick test_sim_conservation;
          Alcotest.test_case "mapping respected" `Quick test_sim_services_respect_mapping;
          Alcotest.test_case "single stage makespan" `Quick test_sim_single_stage_makespan;
          Alcotest.test_case "colocation" `Quick test_sim_colocation_halves_throughput;
          Alcotest.test_case "slow link throttles" `Quick test_sim_slow_link_throttles;
          Alcotest.test_case "load slows run" `Quick test_sim_availability_step_slows_run;
          Alcotest.test_case "remap moves services" `Quick test_sim_remap_moves_services;
          Alcotest.test_case "remap no-op" `Quick test_sim_remap_same_mapping_free;
          Alcotest.test_case "remap during migration" `Quick
            test_sim_remap_while_migrating_rejected;
          Alcotest.test_case "invalid mapping" `Quick test_sim_invalid_mapping;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "spaced arrivals" `Quick test_sim_spaced_arrivals_pace_output;
          Alcotest.test_case "execute one-shot" `Quick test_sim_execute_oneshot;
          Alcotest.test_case "starvation & recovery" `Quick test_sim_total_starvation_and_recovery;
          test_sim_conservation_under_random_dynamics;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "capacity validated" `Quick test_sim_buffer_capacity_validated;
          Alcotest.test_case "monotone in capacity" `Quick test_sim_buffer_monotone;
          Alcotest.test_case "paired work draws" `Quick test_sim_work_draws_paired_across_mappings;
        ] );
      ("farm_sim", farm_sim_cases);
      ("repl_sim", replica_set_cases);
      ( "chan",
        [
          Alcotest.test_case "fifo" `Quick test_chan_fifo;
          Alcotest.test_case "close semantics" `Quick test_chan_close_semantics;
          Alcotest.test_case "try_recv" `Quick test_chan_try_recv;
          Alcotest.test_case "capacity validation" `Quick test_chan_capacity_validation;
          Alcotest.test_case "backpressure across domains" `Quick
            test_chan_backpressure_across_domains;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "apply" `Quick test_pipe_apply;
          Alcotest.test_case "fuse identity" `Quick test_pipe_fuse_identity;
          Alcotest.test_case "fuse all" `Quick test_pipe_fuse_all;
          Alcotest.test_case "fuse validation" `Quick test_pipe_fuse_validation;
          test_pipe_fuse_equivalence;
        ] );
    ]
