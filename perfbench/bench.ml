(* The benchmark entry point.

     bench.exe --workload campaign|fuzz|close|ingest --seed N --seconds S
               --trace 0|1 [--small]

   Run from the root of a built checkout: it starts _build/default/bin/sic.exe
   for the ingest server and keeps its scratch files under _perfbench/.

   --trace 0 prints the five end-to-end metrics, times at the reference
   host speed (see Common.calibrate) and, on a "wall" line, as measured;
   --trace 1 prints the per-layer split (and writes the spans as NDJSON
   and a Chrome trace).
   The last stdout line is the JSON result; earlier lines carry the host
   fingerprint and the run's exact counts. Exits 1 when a check fails. *)

open Common

module type WORKLOAD = sig
  type input
  type env

  val prepare : ctx -> input
  (** input generation, outside the timed set-up *)

  val setup : input -> env
  val teardown : env -> unit
  val round : env -> op list

  val finish : env -> op list -> (string * Json.t) list
  (** output checks after timing; returns the exact counts and digest *)

  val rss_mb : env -> float
  val split : env -> unit
end

(* name, module, set-ups per run (setup_s is their median) *)
let workloads : (string * (module WORKLOAD) * int) list =
  [
    ("campaign", (module W_campaign), 9);
    ("fuzz", (module W_fuzz), 9);
    ("close", (module W_close), 25);
    ("ingest", (module W_ingest), 5);
  ]

let per_layer =
  [
    ("verilog.load_ms", "ms");
    ("passes.instrument_ms", "ms");
    ("sim.create_ms", "ms");
    ("sim.reset_us", "us");
    ("sim.stimulus_ns_per_cycle", "ns");
    ("sim.step_ns_per_cycle", "ns");
    ("sim.harvest_us", "us");
    ("sim.cycles", "count");
    ("fuzz.exec_ms", "ms");
    ("fuzz.mutate_us", "us");
    ("fuzz.execs", "count");
    ("fuzz.new_coverage_ratio", "ratio");
    ("formal.unroll_ms", "ms");
    ("formal.solve_ms", "ms");
    ("formal.conflicts", "count");
    ("formal.decisions", "count");
    ("formal.propagations", "count");
    ("formal.sat_ratio", "ratio");
    ("close.replay_ms", "ms");
    ("close.waves", "count");
    ("close.points_covered", "count");
    ("close.points_excluded", "count");
    ("fleet.overhead_ms", "ms");
    ("fleet.commit_ms", "ms");
    ("fleet.jobs_retried", "count");
    ("db.add_ms", "ms");
    ("db.load_ms", "ms");
    ("db.aggregate_ms", "ms");
    ("db.union_ms", "ms");
    ("db.runs", "count");
    ("core.counts_parse_ms", "ms");
    ("serve.post_ms", "ms");
    ("serve.report_ms", "ms");
    ("serve.watch_lag_ms", "ms");
    ("serve.handler_other_ms", "ms");
    ("serve.metrics_scrape_ms", "ms");
    ("trace.ops_per_s", "1/s");
    ("trace.overhead_ratio", "ratio");
  ]

let run_e2e (module W : WORKLOAD) ~setups ctx =
  let input = W.prepare ctx in
  let env, setup_s, raw_setup_s =
    repeated_setup ~k:setups ~setup:(fun () -> W.setup input) ~teardown:W.teardown
  in
  let p = run_rounds ~seconds:ctx.seconds ~min_ops:ctx.min_ops (fun () -> W.round env) in
  let exact = W.finish env p.ops in
  let rss_mb = W.rss_mb env in
  W.teardown env;
  (* the same metrics on this host's clock, for reading next to the host's
     median slowdown *)
  let raw = end_to_end ~setup_s:raw_setup_s ~ops:p.raw_ops ~wall_s:p.raw_wall_s ~rss_mb in
  Printf.printf "wall %s\n"
    (Json.to_string
       (Json.Obj
          (("host_slowdown", Json.Float (host_slowdown ()))
          :: List.map (fun x -> (x.name, Json.Float x.value)) raw)));
  (p.ops, exact, end_to_end ~setup_s ~ops:p.ops ~wall_s:p.wall_s ~rss_mb)

(* A small traced pass over another workload's ops, so that a traced run
   reports every layer, also those its own workload does not reach. *)
let probe ctx name (module W : WORKLOAD) =
  let out = Filename.concat ctx.out ("probe-" ^ name) in
  let ctx = { ctx with small = true; seconds = 0.; min_ops = 5; out } in
  let env = W.setup (W.prepare ctx) in
  let { ops; _ } = run_rounds ~seconds:0. ~min_ops:ctx.min_ops (fun () -> W.round env) in
  ignore (W.finish env ops);
  W.split env;
  W.teardown env;
  let failed = List.length ops - passed ops in
  ignore (check (failed = 0) "probe %s: %d failed ops" name failed)

(* Thirds of the timed phase: untraced, traced, untraced. The untraced
   thirds bracket the traced one, so drift over the run (the ingest
   database grows) cancels out of the overhead ratio. *)
let run_traced name (module W : WORKLOAD) ctx =
  let env = W.setup (W.prepare ctx) in
  let third () =
    let p =
      run_rounds ~seconds:(ctx.seconds /. 3.) ~min_ops:((ctx.min_ops + 2) / 3) (fun () ->
          W.round env)
    in
    (p.ops, p.wall_s)
  in
  let before, wall_a = third () in
  trace_on ();
  let traced, wall_t = third () in
  Obs.disable ();
  let after, wall_c = third () in
  let ops = before @ traced @ after in
  trace_on ();
  let exact = W.finish env ops in
  W.split env;
  W.teardown env;
  let rate ops wall = float_of_int (passed ops) /. wall in
  Layers.add "trace.ops_per_s" (rate traced wall_t);
  Layers.add "trace.overhead_ratio"
    (rate (before @ after) (wall_a +. wall_c) /. rate traced wall_t);
  List.iter
    (fun (n, w, _) ->
      if n <> name then begin
        Layers.freeze ();
        probe ctx n w
      end)
    workloads;
  let metrics =
    List.map
      (fun (n, u) ->
        if n = "fleet.jobs_retried" then m n u (float_of_int (Layers.count n))
        else if Layers.mem n then m n u (Layers.sample_median n)
        else begin
          ignore (check false "per-layer metric %s has no samples" n);
          m n u 0.
        end)
      per_layer
  in
  let write suffix f =
    let path = ctx.out ^ suffix in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc);
    Printf.printf "trace %s\n" path
  in
  write ".trace.ndjson" Obs.output_ndjson;
  write ".trace.json" (fun oc -> Obs.output_chrome_trace oc);
  (ops, exact, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME campaign, fuzz, close or ingest");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer split");
      ("--small", Arg.Set small, " a few ops per workload (the smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w, setups =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, w, k) -> (w, k)
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  Obs.set_clock now_s;
  start_calibrator ();
  Sic_serve.Serve.ignore_sigpipe ();
  let out = Filename.concat "_perfbench" !workload in
  rm_rf out;
  mkdir_p out;
  let ctx =
    {
      seed = !seed;
      seconds = (if !small then 0. else !seconds);
      min_ops = (if !small then 10 else 100);
      out;
      sic = "_build/default/bin/sic.exe";
      small = !small;
    }
  in
  let ops, exact, metrics =
    if !trace = 1 then run_traced !workload w ctx else run_e2e w ~setups ctx
  in
  rm_rf out;
  (* per-kind latency summary, for reading where the percentiles fall *)
  List.iter
    (fun kind ->
      let lat = latencies (List.filter (fun o -> o.kind = kind) ops) in
      Printf.eprintf "ops %s: n=%d p50=%.2fms p90=%.2fms\n" kind (List.length lat)
        (1e3 *. percentile 50. lat) (1e3 *. percentile 90. lat))
    (List.sort_uniq compare (List.map (fun o -> o.kind) ops));
  Printf.printf "host %s\n" (Json.to_string (host_json ()));
  Printf.printf "exact %s\n" (Json.to_string (Json.Obj (("seed", Json.Int !seed) :: exact)));
  let attempted = List.length ops in
  let failed = attempted - passed ops in
  let correct = !failures = [] && failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.name,
                       Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
