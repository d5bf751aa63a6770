(* Quickstart: build a 4-stage pipeline, run it on a simulated 3-node grid
   under the adaptive pattern, and print what happened.

     dune exec examples/quickstart.exe *)

module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive

let () =
  (* 1. Describe the application: four stages, the third twice as heavy. *)
  let stages =
    [|
      Stage.make ~name:"decode" ~work:(Aspipe_util.Variate.Constant 1.0) ();
      Stage.make ~name:"filter" ~work:(Aspipe_util.Variate.Constant 1.0) ();
      Stage.make ~name:"analyse" ~work:(Aspipe_util.Variate.Constant 2.0) ();
      Stage.make ~name:"encode" ~work:(Aspipe_util.Variate.Constant 1.0) ();
    |]
  in
  (* 2. Describe the run: 300 items arriving in a steady stream. *)
  let input = Stream_spec.make ~arrival:(Stream_spec.Spaced 0.4) ~items:300 () in
  (* 3. Describe the grid: three 10-unit/s nodes, 10 ms links. *)
  let make_topo engine =
    Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ()
  in
  let scenario = Scenario.make ~name:"quickstart" ~make_topo ~stages ~input () in
  (* 4. Run the adaptive pattern, with a full trace attached to the run's
     event bus: the report's own trace keeps completions only, while the
     sojourn of a closed batch is measured from each item's first service. *)
  let trace = Aspipe_grid.Trace.create () in
  let report = Adaptive.run ~instrument:(Aspipe_grid.Trace.subscribe trace) ~scenario ~seed:1 () in
  Format.printf "%a@." Adaptive.pp_report report;
  Printf.printf "first item out at %.2f s; mean sojourn %.2f s\n"
    (match Aspipe_grid.Trace.completions report.Adaptive.trace with
    | [||] -> nan
    | arr -> snd arr.(0))
    (Aspipe_grid.Trace.mean_sojourn trace)
