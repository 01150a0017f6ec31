(* close: one op is one Close.close on closefix, then one on gcd, both at
   -j 1, bound 8 and the default fuzz execs, each into a fresh database.
   Op [i] runs with the master seed of slot [i mod seed_slots]. *)

open Common
module Close = Sic_close.Close
module Fleet = Sic_fleet.Fleet
module Db = Sic_db.Db
module Bmc = Sic_formal.Bmc

let bound = 8

type env = {
  ctx : ctx;
  designs : (string * Sic_ir.Circuit.t) list;
  mutable ops_done : int;
  first : (string * int * int * int * string) list option array;
      (** per seed slot, its first op per design: name, waves, covered,
          excluded, aggregate digest *)
  mutable dbs : string list;
}

let setup ctx =
  let designs =
    Layers.timed ~scale:1e3 "passes.instrument_ms" (fun () ->
        List.map
          (fun (n, c) -> (n, W_fuzz.instrument c))
          [ ("closefix", Sic_designs.Closefix.circuit ()); ("gcd", Sic_designs.Gcd.circuit ()) ])
  in
  { ctx; designs; ops_done = 0; first = Array.make seed_slots None; dbs = [] }

let teardown _ = ()
type input = ctx

let prepare ctx = ctx

let config env ~slot (design, circuit) =
  {
    (Close.default_config ~design ~circuit) with
    Close.bound;
    jobs = 1;
    master_seed = slot_seed env.ctx.seed slot;
  }

let round env =
  let i = env.ops_done in
  let slot = i mod seed_slots in
  env.ops_done <- i + 1;
  let starts = Hashtbl.create 16 in
  let on_event = function
    | Fleet.Job_started { job; _ } ->
        if not (Hashtbl.mem starts job.Fleet.index) then
          Hashtbl.replace starts job.Fleet.index (now_s ())
    | Fleet.Job_retried _ -> Layers.add "fleet.jobs_retried" 1.
    | Fleet.Job_finished { job; result = Ok res } when Obs.on () ->
        let lat = now_s () -. Hashtbl.find starts job.Fleet.index in
        Layers.add "fleet.overhead_ms" (1e3 *. lat -. (res.Fleet.wall_us /. 1e3))
    | Fleet.Job_finished _ | Fleet.Job_heartbeat _ -> ()
  in
  let t0 = now_s () in
  let outcomes =
    span ~op:i "close.op" (fun () ->
        List.map
          (fun ((name, _) as d) ->
            let db = Db.init (fresh_dir env.ctx (Printf.sprintf "%s%04d" name i)) in
            env.dbs <- Db.dir db :: env.dbs;
            let o =
              span ~op:i ~parent:"close.op" ("close." ^ name) (fun () ->
                  Close.close ~on_event ~db (config env ~slot d))
            in
            (name, o, db))
          env.designs)
  in
  let lat = now_s () -. t0 in
  let summary =
    List.map
      (fun (name, (o : Close.outcome), db) ->
        ( name,
          List.length o.Close.waves,
          o.Close.points_covered,
          o.Close.points_excluded,
          digest_counts (Db.aggregate db) ))
      outcomes
  in
  let closed =
    List.for_all
      (fun (_, (o : Close.outcome), _) -> o.Close.fixpoint && o.Close.points_open = 0)
      outcomes
  in
  let ok = check closed "close op %d: a closure did not reach a fixpoint with 0 open points" i in
  let same =
    match env.first.(slot) with
    | None ->
        env.first.(slot) <- Some summary;
        true
    | Some f -> check (f = summary) "close op %d: counts differ from op %d's" i slot
  in
  [ { kind = "close"; round = i; lat_s = lat; ok = ok && same } ]

let finish env _ops =
  List.iter rm_rf env.dbs;
  env.dbs <- [];
  let first = Option.get env.first.(0) in
  let sum f = List.fold_left (fun a x -> a + f x) 0 first in
  let waves = sum (fun (_, w, _, _, _) -> w)
  and covered = sum (fun (_, _, c, _, _) -> c)
  and excluded = sum (fun (_, _, _, e, _) -> e) in
  Layers.add "close.waves" (float_of_int waves);
  Layers.add "close.points_covered" (float_of_int covered);
  Layers.add "close.points_excluded" (float_of_int excluded);
  [
    ("close.waves", Json.Int waves);
    ("close.points_covered", Json.Int covered);
    ("close.points_excluded", Json.Int excluded);
    ( "aggregate_digests",
      Json.List
        (List.filter_map
           (Option.map (fun first ->
                Json.Obj (List.map (fun (n, _, _, _, d) -> (n, Json.String d)) first)))
           (Array.to_list env.first)) );
  ]

let rss_mb _ = peak_rss_mb_of_status "/proc/self/status"

let stat name stats =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] when k = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' stats)
  |> Option.value ~default:0

(* Re-execute wave 0 in-process: the unroll alone, then every point as its
   own single-point check (the closure dispatches one BMC job per open
   point), then the replay of each witness. *)
let split env =
  let queried = ref 0 and witnessed = ref 0 in
  let conflicts = ref 0 and decisions = ref 0 and propagations = ref 0 in
  List.iter
    (fun (name, circuit) ->
      let parent = "close.split." ^ name in
      (* the fastest of a few repeats: the work is deterministic, so the
         minimum is the least disturbed reading, and the difference of two
         minima stays meaningful on millisecond calls *)
      let fastest n f =
        match List.init n (fun _ -> time f) with
        | first :: rest ->
            List.fold_left (fun (r, t) (r', t') -> if t' < t then (r', t') else (r, t)) first rest
        | [] -> invalid_arg "fastest"
      in
      let _, unroll =
        fastest 5 (fun () ->
            span ~parent "formal.unroll" (fun () -> Bmc.check_covers ~bound ~covers:[] circuit))
      in
      Layers.add "formal.unroll_ms" (1e3 *. unroll);
      List.iteri
        (fun op p ->
          incr queried;
          let r, t =
            fastest 3 (fun () ->
                span ~op ~parent "formal.check" (fun () ->
                    Bmc.check_covers ~bound ~covers:[ p ] circuit))
          in
          Layers.add "formal.solve_ms" (1e3 *. (t -. unroll));
          conflicts := !conflicts + stat "conflicts" r.Bmc.solver_stats;
          decisions := !decisions + stat "decisions" r.Bmc.solver_stats;
          propagations := !propagations + stat "propagations" r.Bmc.solver_stats;
          List.iter
            (fun (target, trace) ->
              incr witnessed;
              let counts =
                Layers.timed ~op ~parent ~scale:1e3 "close.replay_ms" (fun () ->
                    let b = Sic_sim.Compiled.create circuit in
                    Sic_sim.Replay.replay b trace;
                    b.Sic_sim.Backend.counts ())
              in
              ignore
                (check (Counts.get counts target > 0) "close split: witness for %s does not fire"
                   target))
            (Bmc.reachable r))
        (Close.all_points circuit))
    env.designs;
  Layers.add "formal.conflicts" (float_of_int !conflicts);
  Layers.add "formal.decisions" (float_of_int !decisions);
  Layers.add "formal.propagations" (float_of_int !propagations);
  Layers.add "formal.sat_ratio" (float_of_int !witnessed /. float_of_int (max 1 !queried))
