(* ingest: the real sic serve binary (--threads 2) on a database pre-seeded
   with 500 runs of 500 points. One keep-alive client connection plus one
   /watch subscriber. Every 5th op is GET /report (uncached: the POST
   before it invalidates the cache); the others POST /runs with fresh
   500-point counts. *)

open Common
module Db = Sic_db.Db
module Client = Sic_serve.Serve.Client
module Rng = Sic_fuzz.Rng

let points = 500
let report_every = 5

(* the counts body of op [i]; pre-seeded runs use negative indices *)
let gen seed i =
  let rng = Rng.split (Rng.create seed) (i + 1_000_000) in
  Counts.of_list
    (List.init points (fun k ->
         (Printf.sprintf "l_Bench_%03d" k, if Rng.int rng 10 < 3 then 0 else Rng.int rng 1000)))

type watch = {
  m : Mutex.t;
  mutable hello : bool;
  mutable deltas : (string * float) list;  (** newest first: data, arrival *)
}

type server = {
  pid : int;
  banner : in_channel;  (** the server's stdout, kept open until it exits *)
  conn : Client.conn;
  watcher : Thread.t;
  w : watch;
}

type env = {
  ctx : ctx;
  dir : string;
  preseed : Counts.t list;
  mutable srv : server option;
  mutable next : int;
  mutable posted : (int * Counts.t * float) list;  (** newest first: op, counts, sent at *)
  mutable prefix : (int * string) option;  (** runs and report digest at op min_ops-1 *)
  mutable rss : float;
}

let port_of_banner line =
  (* "sic serve: listening on http://127.0.0.1:PORT/ (db ...)" *)
  Scanf.sscanf line "sic serve: listening on http://%[^:]:%d/" (fun _ p -> p)

(* servers still running; stopped at exit should the harness fail midway *)
let running : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  running := List.filter (( <> ) pid) !running

let () = at_exit (fun () -> List.iter reap !running)

let spawn ctx dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process ctx.sic
      [| ctx.sic; "serve"; "--db"; dir; "--port"; "0"; "--threads"; "2" |]
      Unix.stdin wr Unix.stderr
  in
  running := pid :: !running;
  Unix.close wr;
  let banner = Unix.in_channel_of_descr rd in
  let port = port_of_banner (input_line banner) in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  let w = { m = Mutex.create (); hello = false; deltas = [] } in
  let on_event ~event ~data =
    let t = now_s () in
    Mutex.protect w.m (fun () ->
        if event = "hello" then w.hello <- true
        else if event = "delta" then w.deltas <- (data, t) :: w.deltas);
    true
  in
  let url = Printf.sprintf "http://127.0.0.1:%d/" port in
  let watcher = Thread.create (fun () -> try Client.watch ~on_event url with _ -> ()) () in
  while not (Mutex.protect w.m (fun () -> w.hello)) do
    Thread.delay 0.0002
  done;
  { pid; banner; conn; watcher; w }

let stop s =
  Client.close s.conn;
  reap s.pid;
  Thread.join s.watcher;
  close_in s.banner

type input = env

(* Input generation, outside the timed set-up: the database and its
   pre-seeded runs. *)
let prepare ctx =
  let dir = fresh_dir ctx "db" in
  let db = Db.init dir in
  let n = if ctx.small then 50 else 500 in
  let preseed = List.init n (fun i -> gen ctx.seed (-1 - i)) in
  List.iteri
    (fun i c ->
      ignore
        (Db.add db ~design:"bench" ~backend:"external" ~workload:"seed" ~seed:(-1 - i)
           ~cycles:1 (Ok c)))
    preseed;
  { ctx; dir; preseed; srv = None; next = 0; posted = []; prefix = None; rss = nan }

let setup env =
  env.srv <- Some (spawn env.ctx env.dir);
  env.next <- 0;
  env.posted <- [];
  env

let teardown env =
  Option.iter stop env.srv;
  env.srv <- None

let report_counts body =
  let j = Json.parse body in
  let counts =
    match Json.member "counts" j with
    | Some (Json.Obj kvs) ->
        Counts.of_list (List.map (fun (k, v) -> (k, match v with Json.Int n -> n | _ -> -1)) kvs)
    | _ -> Counts.create ()
  in
  (Option.value ~default:(-1) (Json.int_member "runs" j), counts)

let round env =
  let s = Option.get env.srv in
  List.init report_every (fun _ ->
      let i = env.next in
      env.next <- i + 1;
      if i mod report_every = report_every - 1 then begin
        let t0 = now_s () in
        let resp = span ~op:i "serve.report" (fun () ->
            Client.request s.conn ~meth:"GET" ~target:"/report" ())
        in
        let lat = now_s () -. t0 in
        if Obs.on () then Layers.add "serve.report_ms" (1e3 *. lat);
        let status = resp.Client.status in
        let ok = check (status = 200) "ingest op %d: GET /report returned %d" i status in
        if i = env.ctx.min_ops - 1 then begin
          let runs, counts = report_counts resp.Client.body in
          env.prefix <- Some (runs, digest_counts counts)
        end;
        { kind = "report"; round = i / report_every; lat_s = lat; ok }
      end
      else begin
        let counts = gen env.ctx.seed i in
        let body = Counts.to_string counts in
        let target =
          Printf.sprintf "/runs?design=bench&backend=external&workload=ingest&seed=%d&cycles=1" i
        in
        let t0 = now_s () in
        let resp =
          span ~op:i "serve.post" (fun () -> Client.request s.conn ~meth:"POST" ~target ~body ())
        in
        let lat = now_s () -. t0 in
        if Obs.on () then Layers.add "serve.post_ms" (1e3 *. lat);
        env.posted <- (i, counts, t0) :: env.posted;
        let status = resp.Client.status in
        let ok = check (status = 201) "ingest op %d: POST /runs returned %d" i status in
        { kind = "post"; round = i / report_every; lat_s = lat; ok }
      end)

let finish env ops =
  let s = Option.get env.srv in
  let posted = List.rev env.posted in
  let n_posted = List.length posted in
  (* every POST must reach the /watch subscriber, once and in order *)
  let deadline = now_s () +. 10. in
  while Mutex.protect s.w.m (fun () -> List.length s.w.deltas) < n_posted && now_s () < deadline do
    Thread.delay 0.001
  done;
  let deltas = Mutex.protect s.w.m (fun () -> List.rev s.w.deltas) in
  let seeds =
    List.map
      (fun (data, t) -> (Option.value ~default:(-1) (Json.int_member "seed" (Json.parse data)), t))
      deltas
  in
  ignore
    (check (List.length seeds = n_posted) "ingest: %d deltas for %d posts" (List.length seeds)
       n_posted);
  (* deltas delivered in order, counted over the first min_ops ops *)
  let in_prefix = ref 0 in
  let rec pair ps ds =
    match (ps, ds) with
    | (i, _, sent) :: ps', (seed, t) :: ds' when seed = i ->
        if Obs.on () then Layers.add "serve.watch_lag_ms" (1e3 *. (t -. sent));
        if i < env.ctx.min_ops then incr in_prefix;
        pair ps' ds'
    | (i, _, _) :: ps', _ ->
        ignore (check false "ingest: the delta of op %d is missing or out of order" i);
        fail_ops (fun o -> o.kind = "post" && o.round = i / report_every) ops;
        pair ps' (match ds with _ :: d -> d | [] -> [])
    | [], _ -> ()
  in
  pair posted seeds;
  (* the final report is the union of everything posted *)
  let resp = Client.request s.conn ~meth:"GET" ~target:"/report" () in
  let runs, final = report_counts resp.Client.body in
  let expected = Counts.union_max (env.preseed @ List.map (fun (_, c, _) -> c) posted) in
  if
    not
      (check
         (resp.Client.status = 200 && Counts.equal final expected
         && runs = List.length env.preseed + n_posted)
         "ingest: the final /report is not the union of the posted counts")
  then fail_ops (fun _ -> true) ops;
  if Obs.on () then
    for _ = 1 to 5 do
      ignore
        (Layers.timed ~scale:1e3 "serve.metrics_scrape_ms" (fun () ->
             Client.request s.conn ~meth:"GET" ~target:"/metrics.prom" ()))
    done;
  env.rss <- peak_rss_mb_of_status (Printf.sprintf "/proc/%d/status" s.pid);
  teardown env;
  let prefix_runs, prefix_digest = Option.value ~default:(-1, "none") env.prefix in
  Layers.add "db.runs" (float_of_int prefix_runs);
  [
    ("prefix_ops", Json.Int env.ctx.min_ops);
    ("deltas", Json.Int !in_prefix);
    ("db.runs", Json.Int prefix_runs);
    ("report_digest", Json.String prefix_digest);
  ]

let rss_mb env = env.rss

(* The POST handler's steps, re-executed in-process on the quiescent
   database: parse, load, aggregate, add; then the /report union. *)
let split env =
  let parent = "ingest.split" in
  for k = 1 to 20 do
    let body = Counts.to_string (gen env.ctx.seed (-1_000_000 - k)) in
    let counts =
      Layers.timed ~op:k ~parent ~scale:1e3 "core.counts_parse_ms" (fun () ->
          Counts.of_string body)
    in
    let db = Layers.timed ~op:k ~parent ~scale:1e3 "db.load_ms" (fun () -> Db.load env.dir) in
    ignore (Layers.timed ~op:k ~parent ~scale:1e3 "db.aggregate_ms" (fun () -> Db.aggregate db));
    ignore
      (Layers.timed ~op:k ~parent ~scale:1e3 "db.add_ms" (fun () ->
           Db.add db ~design:"bench" ~backend:"external" ~workload:"split" ~seed:k ~cycles:1
             (Ok counts)))
  done;
  let db = Db.load env.dir in
  for _ = 1 to 3 do
    ignore (Layers.timed ~parent ~scale:1e3 "db.union_ms" (fun () -> Db.union_counts db))
  done;
  let med = Layers.sample_median in
  Layers.add "serve.handler_other_ms"
    (med "serve.post_ms" -. med "core.counts_parse_ms" -. med "db.load_ms" -. med "db.aggregate_ms"
   -. med "db.add_ms")
