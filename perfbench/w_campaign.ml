(* campaign: Fleet.run_campaign at -j 1, one Compiled wave of 1000-cycle
   random-stimulus jobs, equal seed counts on riscv-mini, serv and rv.v.
   One op is one fleet job, Job_started to Job_finished. A round is one
   campaign into a fresh database; every round repeats the same seeds. *)

open Common
module Fleet = Sic_fleet.Fleet
module Db = Sic_db.Db
module Backend = Sic_sim.Backend
module Bv = Sic_bv.Bv

let cycles = 1000
let rv_path = "examples/verilog/rv.v"

(* instrument the way [sic campaign -m line -m toggle -m fsm] does *)
let instrument c =
  let c, _ = Sic_coverage.Line_coverage.instrument c in
  let c = Sic_passes.Compile.lower c in
  let c, _ = Sic_coverage.Toggle_coverage.instrument c in
  fst (Sic_coverage.Fsm_coverage.instrument c)

let elaborate () =
  [
    ("riscv-mini", Sic_designs.Riscv_mini.circuit ());
    ("serv", Sic_designs.Serv.circuit ());
    ( "rv.v",
      Layers.timed ~scale:1e3 "verilog.load_ms" (fun () ->
          Sic_verilog.Verilog.load_file rv_path) );
  ]

type env = {
  ctx : ctx;
  spec : Fleet.spec;
  mutable db : Db.t;  (** the next round's fresh database *)
  mutable rounds : int;
  mutable first : (string * int * int) option;  (** round 0: digest, cycles, covered *)
  mutable dbs : string list;
  first_jobs : (string, Fleet.job) Hashtbl.t;  (** round 0's first job per design *)
}

let fresh_db ctx r = Db.init (fresh_dir ctx (Printf.sprintf "db%04d" r))

let setup ctx =
  let designs =
    Layers.timed ~scale:1e3 "passes.instrument_ms" (fun () ->
        List.map (fun (n, c) -> (n, instrument c)) (elaborate ()))
  in
  let seeds = if ctx.small then 1 else 12 in
  let spec =
    {
      Fleet.default_spec with
      designs;
      seeds;
      cycles;
      master_seed = ctx.seed;
      jobs = 1;
    }
  in
  {
    ctx;
    spec;
    db = fresh_db ctx 0;
    rounds = 0;
    first = None;
    dbs = [];
    first_jobs = Hashtbl.create 3;
  }

let teardown _ = ()
type input = ctx

let prepare ctx = ctx

let round env =
  let r = env.rounds in
  env.rounds <- r + 1;
  let db = env.db in
  let starts = Hashtbl.create 64 in
  let ops = ref [] in
  let spans = ref 0. in
  let on_event = function
    | Fleet.Job_started { job; _ } ->
        if not (Hashtbl.mem starts job.Fleet.index) then
          Hashtbl.replace starts job.Fleet.index (now_s ());
        if r = 0 && not (Hashtbl.mem env.first_jobs job.Fleet.design) then
          Hashtbl.replace env.first_jobs job.Fleet.design job
    | Fleet.Job_retried _ -> Layers.add "fleet.jobs_retried" 1.
    | Fleet.Job_heartbeat _ -> ()
    | Fleet.Job_finished { job; result } ->
        let t0 = Hashtbl.find starts job.Fleet.index in
        let lat = now_s () -. t0 in
        spans := !spans +. lat;
        record_span ~op:job.Fleet.index ~parent:"campaign.round" "campaign.job" ~start_s:t0
          ~dur_s:lat;
        (match result with
        | Ok res when Obs.on () ->
            Layers.add "fleet.overhead_ms" (1e3 *. lat -. (res.Fleet.wall_us /. 1e3))
        | _ -> ());
        ops :=
          { kind = job.Fleet.design; round = r; lat_s = lat; ok = Result.is_ok result }
          :: !ops
  in
  let summary, wall =
    time (fun () ->
        span ~op:r "campaign.round" (fun () -> Fleet.run_campaign ~on_event ~db env.spec))
  in
  if Obs.on () then Layers.add "fleet.commit_ms" (1e3 *. (wall -. !spans));
  let ops = List.rev !ops in
  let agg = Db.aggregate db in
  let fingerprint = (digest_counts agg, summary.Fleet.sim_cycles, summary.Fleet.points_covered) in
  (match env.first with
  | None -> env.first <- Some fingerprint
  | Some f ->
      if not (check (f = fingerprint) "campaign round %d differs from round 0" r) then
        fail_ops (fun _ -> true) ops);
  ignore
    (check (summary.Fleet.failed = 0) "campaign round %d: %d failed jobs" r
       summary.Fleet.failed);
  env.dbs <- Db.dir db :: env.dbs;
  env.db <- fresh_db env.ctx env.rounds;
  ops

(* re-run a job's stimulus on [create]: the fleet worker's exact recipe *)
let rerun create (job : Fleet.job) =
  let b = create job.Fleet.circuit in
  Backend.reset_sequence b;
  Backend.random_stimulus
    ~bits:(Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create job.Fleet.seed))
    ~cycles:job.Fleet.budget b;
  b.Backend.counts ()

let finish env ops =
  (* one seed per design on the reference interpreter, against the stored
     counts of the first round's database *)
  let db0 = Db.load (List.nth env.dbs (List.length env.dbs - 1)) in
  Hashtbl.iter
    (fun design (job : Fleet.job) ->
      let stored =
        List.find (fun (run : Db.run) -> run.Db.seed = job.Fleet.seed) (Db.ok_runs db0)
      in
      let interp = rerun Sic_sim.Interp.create job in
      if
        not
          (check
             (Counts.equal interp (Db.load_counts db0 stored))
             "campaign: interp re-run of %s seed %d differs from the stored counts" design
             job.Fleet.seed)
      then fail_ops (fun o -> o.kind = design) ops)
    env.first_jobs;
  List.iteri
    (fun i dir ->
      let db = Db.load dir in
      let cached = Db.aggregate db in
      if
        not
          (check
             (Counts.equal cached (Db.recompute_aggregate db))
             "campaign: cached aggregate of %s differs from the recomputed one" dir)
      then
        let r = List.length env.dbs - 1 - i in
        fail_ops (fun o -> o.round = r) ops)
    env.dbs;
  List.iter rm_rf env.dbs;
  rm_rf (Db.dir env.db);
  let digest, sim_cycles, covered = Option.get env.first in
  Layers.add "sim.cycles" (float_of_int sim_cycles);
  [
    ("jobs_per_round", Json.Int (3 * env.spec.Fleet.seeds));
    ("sim.cycles", Json.Int sim_cycles);
    ("points_covered", Json.Int covered);
    ("aggregate_digest", Json.String digest);
  ]

let rss_mb _ = peak_rss_mb_of_status "/proc/self/status"

(* In-process re-execution of round 0's first job per design, timed per
   layer: engine construction, reset, stimulus, step, harvest, then the
   database write of the harvested counts. *)
let split env =
  let scratch = Db.init (fresh_dir env.ctx "split_db") in
  Hashtbl.iter
    (fun design (job : Fleet.job) ->
      let parent = "campaign.split." ^ design in
      for _ = 1 to 3 do
        let b =
          Layers.timed ~parent ~scale:1e3 "sim.create_ms" (fun () ->
              Sic_sim.Compiled.create job.Fleet.circuit)
        in
        Layers.timed ~parent ~scale:1e6 "sim.reset_us" (fun () -> Backend.reset_sequence b);
        let bits = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create job.Fleet.seed) in
        let inputs = Backend.data_inputs b in
        let stim = ref 0. and step = ref 0. in
        span ~parent "sim.cycles" (fun () ->
            for _ = 1 to job.Fleet.budget do
              let t0 = now_s () in
              List.iter
                (fun (n, ty) -> b.Backend.poke n (Bv.random ~width:(Sic_ir.Ty.width ty) bits))
                inputs;
              let t1 = now_s () in
              b.Backend.step 1;
              stim := !stim +. (t1 -. t0);
              step := !step +. (now_s () -. t1)
            done);
        let n = float_of_int job.Fleet.budget in
        Layers.add "sim.stimulus_ns_per_cycle" (1e9 *. !stim /. n);
        Layers.add "sim.step_ns_per_cycle" (1e9 *. !step /. n);
        let counts = Layers.timed ~parent ~scale:1e6 "sim.harvest_us" b.Backend.counts in
        ignore
          (check
             (Counts.equal counts (rerun Sic_sim.Compiled.create job))
             "campaign split: re-execution of %s differs from the fleet recipe" design);
        ignore
          (Layers.timed ~parent ~scale:1e3 "db.add_ms" (fun () ->
               Db.add scratch ~design ~backend:"compiled" ~workload:"random" ~seed:job.Fleet.seed
                 ~cycles:job.Fleet.budget (Ok counts)))
      done)
    env.first_jobs;
  rm_rf (Db.dir scratch)
