(** The persistent coverage database.

    The paper's §5.3 observation — every backend reports the same
    [cover point -> count] map, so coverage "can be merged across backends
    trivially" — only pays off at scale if the runs are kept somewhere: a
    campaign produces hundreds of counts maps from different backends,
    workloads and seeds, and the interesting questions (what is covered
    overall? which runs matter? what is still worth instrumenting on the
    FPGA?) are questions about the {e collection}.

    A database is a plain directory:

    - [manifest.ndjson] — one JSON object per line ({!Sic_obs.Json}
      syntax): a versioned header record, then one [run] record per
      completed or failed job, appended in arrival order; a record is
      committed once its newline is written;
    - [<run-id>.cnt] — the counts map of each successful run, in the
      {!Sic_coverage.Counts} v1 interchange format;
    - [aggregate.cnt] — a cached pointwise-sum of every successful run,
      kept up to date incrementally on {!add} (saturating addition is
      associative and commutative, so incremental maintenance equals a
      full re-merge).

    Everything is human-readable text; [rm aggregate.cnt] simply forces a
    recompute. A handle ({!t}) is a live view that {!sync} catches up by
    reading only what was appended since. *)

module Counts = Sic_coverage.Counts
module Timeline = Sic_coverage.Timeline
module Json = Sic_obs.Json
module Obs = Sic_obs.Obs

exception Db_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Db_error m)) fmt

type status = Run_ok | Run_failed of string

type run = {
  id : string;
  design : string;
  circuit_hash : string;  (** digest of the instrumented circuit, or "-" *)
  backend : string;
  workload : string;
  seed : int;
  cycles : int;  (** simulated cycles / fuzz execs / BMC bound, per workload *)
  wave : int;
  wall_us : float;
  status : status;
  points_total : int;
  points_covered : int;
}

type exclusion = {
  ex_name : string;  (** the cover point *)
  ex_reason : string;  (** e.g. "unreachable within bound 10" *)
  ex_design : string;
  ex_wave : int;  (** the closure wave that proved it *)
}

(* A live view of the directory: [sync] catches it up with the disk by
   reading only the manifest bytes past [m_off]. The counters and the
   union memo are maintained alongside, so no caller has to walk the run
   list to learn its size. *)
type t = {
  dir : string;
  mutable runs_rev : run list;  (** newest first; manifest order is the reverse *)
  mutable exclusions_rev : exclusion list;  (** newest first, like [runs_rev] *)
  mutable m_ino : int;  (** the manifest's inode; -1 before the first sync *)
  mutable m_off : int;  (** manifest bytes through the last complete line *)
  mutable m_lines : int;  (** complete manifest lines, the header included *)
  mutable m_headed : bool;  (** the meta record was among them *)
  mutable n_runs : int;
  mutable n_ok : int;
  mutable ok_cycles : int;  (** summed over ok runs *)
  mutable ex_size : int;  (** exclusions file size when last read; -1 never *)
  mutable ex_off : int;  (** its bytes through the last complete line *)
  mutable union : Counts.t;  (** union-max over the first [union_n] ok runs *)
  mutable union_n : int;
}

let version = 1

let exclusions_version = 1

let manifest_path dir = Filename.concat dir "manifest.ndjson"

let exclusions_path dir = Filename.concat dir "exclusions.ndjson"

let aggregate_path dir = Filename.concat dir "aggregate.cnt"

let counts_file run = run.id ^ ".cnt"

let timeline_file run = run.id ^ ".tl"

let dir t = t.dir

let runs t = List.rev t.runs_rev

(* ------------------------------------------------------------------ *)
(* The advisory lock                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Cross-process mutual exclusion for manifest/aggregate updates. The
    lock is a [lock] file in the database directory created with
    [O_CREAT | O_EXCL] (atomic on every POSIX filesystem) and holding the
    owner's pid; a lock whose owner is no longer alive is stale and taken
    over, so a killed campaign never wedges the database. Reentrant
    within a process (nested {!with_lock} calls on the same directory are
    free), but {e not} thread-safe on its own — a threaded writer (the
    coverage server) must serialize its own writers first. *)
module Lock = struct
  let lock_path dir = Filename.concat dir "lock"

  (* directories this process already holds; makes with_lock reentrant *)
  let held : (string, unit) Hashtbl.t = Hashtbl.create 4

  let owner_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception Unix.Unix_error _ -> true (* EPERM etc.: someone owns it *)

  (* one attempt; on a stale lock, unlink it and report failure so the
     retry loop races for the fresh O_EXCL create like everyone else *)
  let try_acquire path =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd ->
        let pid = string_of_int (Unix.getpid ()) ^ "\n" in
        let b = Bytes.of_string pid in
        ignore (Unix.write fd b 0 (Bytes.length b));
        Unix.close fd;
        true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
        (match int_of_string_opt (String.trim (try read_file path with _ -> "")) with
        | Some pid when not (owner_alive pid) -> ( try Unix.unlink path with _ -> ())
        | Some _ | None -> ());
        false

  let with_lock ?(timeout_s = 10.) dir f =
    if Hashtbl.mem held dir then f ()
    else begin
      let path = lock_path dir in
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec acquire () =
        if try_acquire path then ()
        else if Unix.gettimeofday () > deadline then
          error "timed out after %.0fs waiting for %s (held by pid %s)" timeout_s path
            (String.trim (try read_file path with _ -> "?"))
        else begin
          Unix.sleepf 0.01;
          acquire ()
        end
      in
      acquire ();
      Hashtbl.replace held dir ();
      Fun.protect
        ~finally:(fun () ->
          Hashtbl.remove held dir;
          try Unix.unlink path with _ -> ())
        f
    end
end

let find t id = List.find_opt (fun r -> r.id = id) t.runs_rev

let ok_runs t = List.filter (fun r -> r.status = Run_ok) (runs t)

(* ------------------------------------------------------------------ *)
(* Manifest encoding                                                    *)
(* ------------------------------------------------------------------ *)

let json_of_run (r : run) : Json.t =
  Json.Obj
    ([
       ("type", Json.String "run");
       ("id", Json.String r.id);
       ("design", Json.String r.design);
       ("circuit_hash", Json.String r.circuit_hash);
       ("backend", Json.String r.backend);
       ("workload", Json.String r.workload);
       ("seed", Json.Int r.seed);
       ("cycles", Json.Int r.cycles);
       ("wave", Json.Int r.wave);
       ("wall_us", Json.Float r.wall_us);
       ("points_total", Json.Int r.points_total);
       ("points_covered", Json.Int r.points_covered);
     ]
    @
    match r.status with
    | Run_ok -> [ ("status", Json.String "ok") ]
    | Run_failed why -> [ ("status", Json.String "failed"); ("error", Json.String why) ])

let run_of_json lineno (j : Json.t) : run =
  let str k =
    match Json.string_member k j with
    | Some s -> s
    | None -> error "manifest line %d: missing field %s" lineno k
  in
  let int k =
    match Json.int_member k j with
    | Some i -> i
    | None -> error "manifest line %d: missing field %s" lineno k
  in
  let status =
    match str "status" with
    | "ok" -> Run_ok
    | "failed" -> Run_failed (Option.value ~default:"unknown" (Json.string_member "error" j))
    | s -> error "manifest line %d: unknown status %S" lineno s
  in
  {
    id = str "id";
    design = str "design";
    circuit_hash = str "circuit_hash";
    backend = str "backend";
    workload = str "workload";
    seed = int "seed";
    cycles = int "cycles";
    wave = int "wave";
    wall_us = Option.value ~default:0. (Json.float_member "wall_us" j);
    status;
    points_total = int "points_total";
    points_covered = int "points_covered";
  }

let header_json () =
  Json.Obj
    [
      ("type", Json.String "meta");
      ("format", Json.String "sic-db");
      ("version", Json.Int version);
    ]

let line_of (j : Json.t) = Json.to_string j ^ "\n"

let append path text =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* The file's bytes from offset [off] on. *)
let read_from path off =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      seek_in ic off;
      really_input_string ic (max 0 (in_channel_length ic - off)))

type 'a chunk = {
  headed : bool;  (** the meta record has been seen, in this chunk or before *)
  records_rev : 'a list;  (** newest first *)
  lines : int;
  bytes : int;
}

(* The NDJSON artifacts (manifest, exclusions): a meta record naming the
   format and its version, then one JSON record per line. [text] is the
   file from line [line0 + 1] on, and [headed] says whether the meta
   record came before it. Each record is decoded by [decode lineno json]
   as its line parses, which keeps the JSON trees short-lived; blank
   lines are skipped. A line counts only once its newline is written: an
   unterminated tail is an append in progress, or one torn by a dead
   writer, and is left unread. *)
let parse_ndjson path ~what ~format ~version ~headed ~line0 (decode : int -> Json.t -> 'a) text
    : 'a chunk =
  let stop = match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0 in
  let headed = ref headed and records = ref [] and lineno = ref line0 and pos = ref 0 in
  while !pos < stop do
    let nl = String.index_from text !pos '\n' in
    let l = String.sub text !pos (nl - !pos) in
    incr lineno;
    pos := nl + 1;
    if String.trim l <> "" then begin
      let j = try Json.parse l with Json.Parse_error m -> error "%s line %d: %s" what !lineno m in
      if !headed then records := decode !lineno j :: !records
      else begin
        (match (Json.string_member "format" j, Json.int_member "version" j) with
        | Some f, Some v when f = format && v = version -> ()
        | Some f, Some v when f = format ->
            error "%s: %s version %d, this build reads version %d" path what v version
        | _ -> error "%s: %s does not start with a %s meta record" path what format);
        headed := true
      end
    end
  done;
  { headed = !headed; records_rev = !records; lines = !lineno - line0; bytes = stop }

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Under the lock: cut an unterminated tail a dead writer left at [off],
   so the next record starts on a line of its own. *)
let drop_torn_tail path ~off = if file_size path > off then Unix.truncate path off

(* ------------------------------------------------------------------ *)
(* The exclusion artifact                                               *)
(* ------------------------------------------------------------------ *)

(* [exclusions.ndjson]: the same shape as the manifest — a versioned meta
   header, then one record per point formally proven unreachable (the
   closure loop's UNSAT-within-bound verdicts). A separate artifact
   rather than manifest records because it describes the *design*, not a
   run: deleting runs or re-running a campaign leaves it valid, and
   report/rank/HTML consult it to stop counting dead points as coverage
   debt. *)

let exclusions_header_json () =
  Json.Obj
    [
      ("type", Json.String "meta");
      ("format", Json.String "sic-exclusions");
      ("version", Json.Int exclusions_version);
    ]

let json_of_exclusion (e : exclusion) : Json.t =
  Json.Obj
    [
      ("type", Json.String "exclusion");
      ("name", Json.String e.ex_name);
      ("reason", Json.String e.ex_reason);
      ("design", Json.String e.ex_design);
      ("wave", Json.Int e.ex_wave);
    ]

let exclusion_of_json lineno (j : Json.t) : exclusion =
  let str k =
    match Json.string_member k j with
    | Some s -> s
    | None -> error "exclusions line %d: missing field %s" lineno k
  in
  {
    ex_name = str "name";
    ex_reason = str "reason";
    ex_design = str "design";
    ex_wave = Option.value ~default:0 (Json.int_member "wave" j);
  }

(* The exclusions file is small and rarely written: any change of its
   size re-reads it whole. *)
let sync_exclusions t =
  let path = exclusions_path t.dir in
  let size = file_size path in
  if size <> t.ex_size then begin
    let c =
      parse_ndjson path ~what:"exclusions" ~format:"sic-exclusions"
        ~version:exclusions_version ~headed:false ~line0:0 exclusion_of_json
        (if size = 0 then "" else read_from path 0)
    in
    t.exclusions_rev <- c.records_rev;
    (* a file without its header yet holds nothing; the next append
       starts it afresh *)
    t.ex_off <- (if c.headed then c.bytes else 0);
    t.ex_size <- size
  end

(* ------------------------------------------------------------------ *)
(* Open / create / sync                                                 *)
(* ------------------------------------------------------------------ *)

let empty dir =
  {
    dir;
    runs_rev = [];
    exclusions_rev = [];
    m_ino = -1;
    m_off = 0;
    m_lines = 0;
    m_headed = false;
    n_runs = 0;
    n_ok = 0;
    ok_cycles = 0;
    ex_size = -1;
    ex_off = 0;
    union = Counts.create ();
    union_n = 0;
  }

let count_run t r =
  t.n_runs <- t.n_runs + 1;
  if r.status = Run_ok then begin
    t.n_ok <- t.n_ok + 1;
    t.ok_cycles <- t.ok_cycles + r.cycles
  end

(** Catch the handle up with the disk. Reads only the manifest bytes past
    those already consumed, and only complete lines of them; a replaced
    (new inode) or shrunk manifest is read again from the start. A parse
    error leaves the handle as it was. *)
let sync t =
  let path = manifest_path t.dir in
  let st =
    try Unix.stat path
    with Unix.Unix_error (Unix.ENOENT, _, _) ->
      error "%s is not a coverage database (no manifest.ndjson); run `sic db init` first" t.dir
  in
  if st.Unix.st_ino <> t.m_ino || st.Unix.st_size < t.m_off then begin
    (* a re-init or a replaced manifest: start over *)
    t.runs_rev <- [];
    t.m_ino <- st.Unix.st_ino;
    t.m_off <- 0;
    t.m_lines <- 0;
    t.m_headed <- false;
    t.n_runs <- 0;
    t.n_ok <- 0;
    t.ok_cycles <- 0;
    t.ex_size <- -1;
    t.union <- Counts.create ();
    t.union_n <- 0
  end;
  if st.Unix.st_size > t.m_off then begin
    let c =
      parse_ndjson path ~what:"manifest" ~format:"sic-db" ~version ~headed:t.m_headed
        ~line0:t.m_lines run_of_json (read_from path t.m_off)
    in
    List.iter (count_run t) c.records_rev;
    t.runs_rev <- c.records_rev @ t.runs_rev;
    t.m_headed <- c.headed;
    t.m_lines <- t.m_lines + c.lines;
    t.m_off <- t.m_off + c.bytes
  end;
  if not t.m_headed then error "%s: empty manifest" t.dir;
  sync_exclusions t

let load dir =
  let t = empty dir in
  sync t;
  t

let init dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then error "%s exists and is not a directory" dir;
  if Sys.file_exists (manifest_path dir) then error "%s is already a coverage database" dir;
  (* stale artifacts from a hand-deleted manifest must not leak into the
     fresh database *)
  if Sys.file_exists (aggregate_path dir) then Sys.remove (aggregate_path dir);
  if Sys.file_exists (exclusions_path dir) then Sys.remove (exclusions_path dir);
  append (manifest_path dir) (line_of (header_json ()));
  load dir

let open_or_init dir = if Sys.file_exists (manifest_path dir) then load dir else init dir

let run_count t = t.n_runs

let ok_count t = t.n_ok

let ok_cycles t = t.ok_cycles

let stamp t = t.m_off + t.ex_off

(* ------------------------------------------------------------------ *)
(* Counts and the aggregate cache                                       *)
(* ------------------------------------------------------------------ *)

let load_counts t (run : run) : Counts.t =
  match run.status with
  | Run_failed _ -> error "run %s failed; it has no counts" run.id
  | Run_ok -> Counts.load (Filename.concat t.dir (counts_file run))

(** The run's coverage-convergence timeline, when one was recorded
    (campaigns with [timeline_every > 0]); failed runs and runs from
    timeline-less producers have none. *)
let load_timeline t (run : run) : Timeline.t option =
  match run.status with
  | Run_failed _ -> None
  | Run_ok ->
      let path = Filename.concat t.dir (timeline_file run) in
      if Sys.file_exists path then Some (Timeline.load path) else None

let recompute_aggregate t : Counts.t =
  Obs.span "db.aggregate.recompute" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  sync t;
  let agg = Counts.merge (List.map (load_counts t) (ok_runs t)) in
  Counts.save (aggregate_path t.dir) agg;
  agg

let aggregate t : Counts.t =
  if Sys.file_exists (aggregate_path t.dir) then Counts.load (aggregate_path t.dir)
  else recompute_aggregate t

(** The §5.3 export: the merged counts, ready to feed
    {!Sic_coverage.Removal.remove_covered} so the next (more expensive)
    instrumentation only carries still-uncovered points. *)
let removal_counts = aggregate

(* The ok runs past the first [n] ok runs, oldest first. Walks only the
   newest end of the list. *)
let ok_runs_after t n =
  let rec go want acc = function
    | r :: rest when want > 0 ->
        if r.status = Run_ok then go (want - 1) (r :: acc) rest else go want acc rest
    | _ -> acc
  in
  go (t.n_ok - n) [] t.runs_rev

(** The idempotent merge: pointwise maximum over every successful run.
    Unlike the cached sum {!aggregate} this is safe under at-least-once
    delivery (a network producer that retries a push reports the same run
    twice), which is why the coverage server's [/report] serves this view.
    Max is associative, so the handle keeps the union of the runs it has
    already folded and reads only the counts files of runs added since,
    one at a time. Max is also idempotent: when a counts file fails to
    load, the runs folded before it are folded again on the next call,
    which changes nothing. *)
let union_counts t : Counts.t =
  List.iter (fun r -> Counts.max_into t.union (load_counts t r)) (ok_runs_after t t.union_n);
  t.union_n <- t.n_ok;
  Counts.union_max [ t.union ]

let next_id t = Printf.sprintf "r%04d" (t.n_runs + 1)

let add t ~design ?(circuit_hash = "-") ~backend ~workload ~seed ~cycles ?(wave = 0)
    ?(wall_us = 0.) ?timeline (outcome : (Counts.t, string) result) : run =
  Obs.span "db.add" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  (* ids and the aggregate come from the disk, not from what this handle
     saw last: another handle or process may have added runs since *)
  sync t;
  drop_torn_tail (manifest_path t.dir) ~off:t.m_off;
  let id = next_id t in
  let status, points_total, points_covered =
    match outcome with
    | Ok counts -> (Run_ok, Counts.total_points counts, Counts.covered_points counts)
    | Error why -> (Run_failed why, 0, 0)
  in
  let run =
    {
      id;
      design;
      circuit_hash;
      backend;
      workload;
      seed;
      cycles;
      wave;
      wall_us;
      status;
      points_total;
      points_covered;
    }
  in
  (match outcome with
  | Ok counts ->
      Counts.save (Filename.concat t.dir (counts_file run)) counts;
      (match timeline with
      | Some tl -> Timeline.save (Filename.concat t.dir (timeline_file run)) tl
      | None -> ());
      (* maintain the cache incrementally: sum-merge is associative *)
      let agg = if t.n_ok = 0 then counts else Counts.merge [ aggregate t; counts ] in
      Counts.save (aggregate_path t.dir) agg
  | Error _ -> Obs.count "db.failed_runs");
  (* the manifest line is the commit point *)
  let line = line_of (json_of_run run) in
  append (manifest_path t.dir) line;
  t.runs_rev <- run :: t.runs_rev;
  count_run t run;
  t.m_lines <- t.m_lines + 1;
  t.m_off <- t.m_off + String.length line;
  run

(* ------------------------------------------------------------------ *)
(* Exclusions                                                           *)
(* ------------------------------------------------------------------ *)

let exclusions t = List.rev t.exclusions_rev

let excluded_names t : string list =
  List.sort_uniq String.compare (List.map (fun e -> e.ex_name) t.exclusions_rev)

(** Append proven-unreachable points to the exclusion artifact.
    Idempotent per point: a name already excluded is skipped, so replayed
    closure waves never duplicate records. *)
let add_exclusions t (exs : exclusion list) : unit =
  Obs.span "db.add_exclusions" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  sync_exclusions t;
  let path = exclusions_path t.dir in
  drop_torn_tail path ~off:t.ex_off;
  let already = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace already e.ex_name ()) t.exclusions_rev;
  let fresh =
    List.filter
      (fun e ->
        if Hashtbl.mem already e.ex_name then false
        else begin
          Hashtbl.replace already e.ex_name ();
          true
        end)
      exs
  in
  if fresh <> [] then begin
    let text =
      String.concat ""
        ((if t.ex_off = 0 then [ line_of (exclusions_header_json ()) ] else [])
        @ List.map (fun e -> line_of (json_of_exclusion e)) fresh)
    in
    append path text;
    t.exclusions_rev <- List.rev_append fresh t.exclusions_rev;
    t.ex_off <- t.ex_off + String.length text;
    t.ex_size <- t.ex_off
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

let get_run t id =
  match find t id with Some r -> r | None -> error "no run %s in %s" id t.dir

let diff t ~before ~after =
  Counts.diff ~before:(load_counts t (get_run t before)) ~after:(load_counts t (get_run t after))

(** Greedy set cover: the classic ln(n)-approximate minimal subset of runs
    whose union reaches every point the whole database covers (at
    [threshold]). This is the paper's "remove already-covered points"
    generalized to test-suite minimization: keep these runs, retire the
    rest. Deterministic: ties break toward the earlier run id. *)
let rank ?(threshold = 1) t : run list =
  Obs.span "db.rank" @@ fun () ->
  let with_counts =
    List.map (fun r -> (r, load_counts t r)) (ok_runs t)
  in
  let excluded = excluded_names t in
  let target =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, c) -> Counts.covered ~threshold c) with_counts)
    |> List.filter (fun n -> not (List.mem n excluded))
  in
  let uncovered = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace uncovered p ()) target;
  let gain (_, counts) =
    List.fold_left
      (fun acc p -> if Hashtbl.mem uncovered p then acc + 1 else acc)
      0
      (Counts.covered ~threshold counts)
  in
  let rec go picked remaining =
    if Hashtbl.length uncovered = 0 || remaining = [] then List.rev picked
    else
      let best, best_gain =
        List.fold_left
          (fun (best, best_gain) cand ->
            let g = gain cand in
            if g > best_gain then (Some cand, g) else (best, best_gain))
          (None, 0) remaining
      in
      match best with
      | None | Some _ when best_gain = 0 -> List.rev picked
      | None -> List.rev picked
      | Some ((r, counts) as chosen) ->
          List.iter (fun p -> Hashtbl.remove uncovered p) (Counts.covered ~threshold counts);
          go (r :: picked) (List.filter (fun c -> c != chosen) remaining)
  in
  go [] with_counts

(* ------------------------------------------------------------------ *)
(* Rendering (the CLI's output)                                         *)
(* ------------------------------------------------------------------ *)

let render_run_line (r : run) =
  Printf.sprintf "%-6s %-12s %-9s %-8s w%-2d seed=%-6d n=%-8d %s" r.id r.design r.backend
    r.workload r.wave r.seed r.cycles
    (match r.status with
    | Run_ok -> Printf.sprintf "%d/%d covered" r.points_covered r.points_total
    | Run_failed why -> "FAILED: " ^ why)

let render_list t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "coverage database %s: %d runs (%d ok, %d failed)\n" t.dir
       (List.length t.runs_rev)
       (List.length (ok_runs t))
       (List.length t.runs_rev - List.length (ok_runs t)));
  List.iter (fun r -> Buffer.add_string buf (render_run_line r ^ "\n")) (runs t);
  Buffer.contents buf

let render_report t =
  let buf = Buffer.create 512 in
  let agg = aggregate t in
  (* formally excluded points are off the books entirely: the denominator,
     per-backend tallies and the uncovered list all range over the
     non-excluded points only (with no exclusions this is byte-identical
     to the exclusion-free report) *)
  let excluded = excluded_names t in
  let is_excluded n = List.mem n excluded in
  let live = List.filter (fun n -> not (is_excluded n)) (Counts.names agg) in
  let total = List.length live in
  let cov = List.length (List.filter (fun n -> Counts.get agg n > 0) live) in
  Buffer.add_string buf
    (Printf.sprintf "runs        : %d ok, %d failed\n"
       (List.length (ok_runs t))
       (List.length t.runs_rev - List.length (ok_runs t)));
  Buffer.add_string buf
    (Printf.sprintf "cover points: %d/%d covered (%.1f%%)\n" cov total
       (if total = 0 then 100. else 100. *. float_of_int cov /. float_of_int total));
  if excluded <> [] then
    Buffer.add_string buf
      (Printf.sprintf "excluded    : %d points proven unreachable\n" (List.length excluded));
  (* contribution per backend: points each backend covered on its own *)
  let backends =
    List.sort_uniq String.compare (List.map (fun r -> r.backend) (ok_runs t))
  in
  List.iter
    (fun backend ->
      let c =
        Counts.merge
          (List.filter_map
             (fun r -> if r.backend = backend then Some (load_counts t r) else None)
             (ok_runs t))
      in
      let bcov =
        List.length (List.filter (fun n -> (not (is_excluded n)) && Counts.get c n > 0) (Counts.names c))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-9s : %d/%d points, %d runs\n" backend bcov total
           (List.length (List.filter (fun r -> r.backend = backend) (ok_runs t)))))
    backends;
  let uncovered = List.filter (fun n -> Counts.get agg n = 0) live in
  if uncovered <> [] then begin
    Buffer.add_string buf "still uncovered:\n";
    List.iter (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n")) uncovered
  end;
  if excluded <> [] then begin
    Buffer.add_string buf "excluded (proven unreachable):\n";
    List.iter
      (fun (e : exclusion) ->
        Buffer.add_string buf (Printf.sprintf "  %s  (%s)\n" e.ex_name e.ex_reason))
      (exclusions t)
  end;
  Buffer.contents buf

(** The textual convergence report ([sic db report --timeline]): one
    sparkline per run that recorded a timeline, plus a "which backend
    saturates first" comparison when several backends did. *)
let render_timelines t =
  let with_tl =
    List.filter_map
      (fun r -> Option.map (fun tl -> (r, tl)) (load_timeline t r))
      (ok_runs t)
  in
  if with_tl = [] then
    "no timelines recorded (re-run the campaign with --timeline-every > 0)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "coverage convergence (work -> points covered):\n";
    List.iter
      (fun ((r : run), (tl : Timeline.t)) ->
        let sat =
          match Timeline.saturation_at tl with
          | Some at -> Printf.sprintf ", ~saturated at n=%d" at
          | None -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-6s %-12s %-9s [%s] %d/%d pts in n=%d%s\n" r.id r.design
             r.backend (Timeline.sparkline tl) (Timeline.final_covered tl) tl.Timeline.total
             (Timeline.last_at tl) sat))
      with_tl;
    let backends =
      List.sort_uniq String.compare (List.map (fun ((r : run), _) -> r.backend) with_tl)
    in
    if List.length backends > 1 then begin
      Buffer.add_string buf "earliest saturation per backend:\n";
      List.iter
        (fun backend ->
          let sats =
            List.filter_map
              (fun ((r : run), tl) ->
                if r.backend = backend then Timeline.saturation_at tl else None)
              with_tl
          in
          match sats with
          | [] -> ()
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  %-9s : n=%d\n" backend
                   (List.fold_left min max_int sats)))
        backends
    end;
    Buffer.contents buf
  end

let render_rank ?threshold t =
  let picked = rank ?threshold t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d of %d runs suffice for full merged coverage:\n" (List.length picked)
       (List.length (ok_runs t)));
  let covered = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let c = load_counts t r in
      let fresh =
        List.filter (fun p -> not (Hashtbl.mem covered p)) (Counts.covered ?threshold c)
      in
      List.iter (fun p -> Hashtbl.replace covered p ()) fresh;
      Buffer.add_string buf
        (Printf.sprintf "  %s  +%-4d points  (%s %s seed=%d)\n" r.id (List.length fresh)
           r.design r.backend r.seed))
    picked;
  Buffer.contents buf

(** The machine-readable rank view ([sic db rank --json]) — what the
    closure loop and external tooling consume: the aggregate's coverage
    state split into covered / uncovered / excluded (exclusions are off
    the books, as in {!render_report}), plus the greedy set-cover pick
    with each run's marginal gain. *)
let rank_json ?(threshold = 1) t : Json.t =
  let agg = aggregate t in
  let excluded = excluded_names t in
  let is_excluded n = List.mem n excluded in
  let live = List.filter (fun n -> not (is_excluded n)) (Counts.names agg) in
  let uncovered = List.filter (fun n -> Counts.get agg n < threshold) live in
  let covered_n = List.length live - List.length uncovered in
  let picked = rank ~threshold t in
  let seen = Hashtbl.create 256 in
  let picked_json =
    List.map
      (fun r ->
        let c = load_counts t r in
        let fresh =
          List.filter (fun p -> not (Hashtbl.mem seen p)) (Counts.covered ~threshold c)
        in
        List.iter (fun p -> Hashtbl.replace seen p ()) fresh;
        Json.Obj
          [
            ("id", Json.String r.id);
            ("design", Json.String r.design);
            ("backend", Json.String r.backend);
            ("seed", Json.Int r.seed);
            ("gain", Json.Int (List.length fresh));
          ])
      picked
  in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("threshold", Json.Int threshold);
      ("points_total", Json.Int (List.length live));
      ("points_covered", Json.Int covered_n);
      ("uncovered", strings uncovered);
      ("excluded", strings excluded);
      ("picked", Json.List picked_json);
    ]
