(* The benchmark's in-process helper. [run.py] drives the real [gfq]
   binary over sockets; this executable does the work that needs the
   library itself:

   - input generation that must use the program's own generators
     ([adhoc]: Query_gen.from_data queries; [mutations]: an edge stream
     over a dataset; [snapshot]: a GFQSNAP1 store directory);
   - the output oracle, computed apart from the executor with
     [Naive] ([naive]: counts and optionally rows; [rwcheck]: counts on
     graphs rebuilt with [Graph.build] at given WAL versions);
   - the per-layer probes of a traced run ([layers]): every call into a
     layer is wrapped in a span, and the spans are written out as JSON
     lines for [run.py] to merge into one Chrome trace.

   Every subcommand reads and writes plain text files named on its
   command line. *)

module Gf = Graphflow
module Service = Gf_server.Service
module Wire = Gf_server.Wire
module Ladder = Gf_server.Ladder
module Proto = Gf_cluster.Proto
module Store = Gf_wal.Store

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pbtool: " ^ s); exit 2) fmt
let now = Unix.gettimeofday

let dataset name scale =
  match Gf.Generators.dataset_name_of_string name with
  | Some d -> Gf.Generators.dataset ~scale d
  | None -> die "unknown dataset %S" name

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let parse_dsl s =
  match Gf.Query_parser.parse_result s with
  | Ok q -> q
  | Error e -> die "bad query %S: %s" s e.Gf.Parse_error.message

(* A query as pattern DSL: every vertex declared with its label first, so
   parsing binds the names in index order. *)
let to_dsl (q : Gf.Query.t) =
  let n = Gf.Query.num_vertices q in
  let decls = List.init n (fun i -> Printf.sprintf "a%d:%d" (i + 1) (Gf.Query.vlabel q i)) in
  let edges =
    Array.to_list
      (Array.map
         (fun (e : Gf.Query.edge) ->
           if e.label = 0 then Printf.sprintf "a%d->a%d" (e.src + 1) (e.dst + 1)
           else Printf.sprintf "a%d->a%d@%d" (e.src + 1) (e.dst + 1) e.label)
         q.Gf.Query.edges)
  in
  String.concat ", " (decls @ edges)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- spans ------------------------------------------------------------ *)

type span = { id : int; parent : int; layer : string; name : string; t0 : float; t1 : float }

let spans = ref []
let next_id = ref 1
let stack = ref []

(* [span layer name f] times one call into [layer]; nested calls become
   child spans, so a layer's self time excludes them. *)
let span layer name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    stack := List.tl !stack;
    spans := { id; parent; layer; name; t0; t1 } :: !spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let timed layer name f =
  let t0 = now () in
  let v = span layer name f in
  (now () -. t0, v)

let write_spans path =
  with_out path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"name\":\"%s\",\"ts_us\":%.1f,\"dur_us\":%.1f}\n"
            s.id s.parent s.layer s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6))
        (List.rev !spans))

(* --- oracle ----------------------------------------------------------- *)

(* naive DATASET SCALE QUERIES OUT [ROWS_PREFIX]: one Naive count per
   query line; with ROWS_PREFIX, query i's matches also go to
   ROWS_PREFIX.i, one space-separated tuple per line (column j = the
   query's j-th vertex in order of first appearance). *)
let cmd_naive = function
  | [ ds; scale; qfile; out ] | [ ds; scale; qfile; out; _ ] as args ->
      let g = dataset ds (float_of_string scale) in
      let rows_prefix = match args with [ _; _; _; _; p ] -> Some p | _ -> None in
      with_out out (fun oc ->
          List.iteri
            (fun i line ->
              let q = parse_dsl line in
              match rows_prefix with
              | None -> Printf.fprintf oc "%d\n" (Gf.Naive.count g q)
              | Some p ->
                  let rows = Gf.Naive.collect g q in
                  with_out (Printf.sprintf "%s.%d" p i) (fun ro ->
                      List.iter
                        (fun r ->
                          output_string ro
                            (String.concat " " (Array.to_list (Array.map string_of_int r)));
                          output_char ro '\n')
                        rows);
                  Printf.fprintf oc "%d\n" (List.length rows))
            (read_lines qfile))
  | _ -> die "usage: naive DATASET SCALE QUERIES OUT [ROWS_PREFIX]"

(* Graph.build over an explicit edge set, for the read-write oracle. *)
let build_from n (edges : (int * int, unit) Hashtbl.t) =
  let arr = Array.of_seq (Seq.map (fun (u, v) -> (u, v, 0)) (Hashtbl.to_seq_keys edges)) in
  Array.sort compare arr;
  Gf.Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:(Array.make n 0) ~edges:arr

let genesis_edges g =
  let h = Hashtbl.create (Gf.Graph.num_edges g * 2) in
  Array.iter (fun (u, v, _) -> Hashtbl.replace h (u, v) ()) (Gf.Graph.edge_array g);
  h

let apply_op h line =
  match String.split_on_char ' ' line with
  | [ "addedge"; u; v ] -> Hashtbl.replace h (int_of_string u, int_of_string v) ()
  | [ "deledge"; u; v ] -> Hashtbl.remove h (int_of_string u, int_of_string v)
  | _ -> die "bad mutation %S" line

(* rwcheck DATASET SCALE ACKED VERSIONS QUERIES OUT: ACKED holds
   "<lsn> <mutation>" lines in LSN order; for each WAL version v in
   VERSIONS the graph is genesis plus every acked mutation with lsn <= v,
   and OUT gets "v <live edges> <count of each query>". *)
let cmd_rwcheck = function
  | [ ds; scale; acked; versions; qfile; out ] ->
      let g = dataset ds (float_of_string scale) in
      let n = Gf.Graph.num_vertices g in
      let h = genesis_edges g in
      let ops =
        List.map
          (fun l ->
            match String.index_opt l ' ' with
            | Some i -> (int_of_string (String.sub l 0 i), String.sub l (i + 1) (String.length l - i - 1))
            | None -> die "bad acked line %S" l)
          (read_lines acked)
      in
      let qs = List.map parse_dsl (read_lines qfile) in
      let vs = List.sort_uniq compare (List.map int_of_string (read_lines versions)) in
      let rest = ref ops in
      with_out out (fun oc ->
          List.iter
            (fun v ->
              let rec advance () =
                match !rest with
                | (lsn, op) :: tl when lsn <= v ->
                    apply_op h op;
                    rest := tl;
                    advance ()
                | _ -> ()
              in
              advance ();
              let gv = build_from n h in
              Printf.fprintf oc "%d %d" v (Hashtbl.length h);
              List.iter (fun q -> Printf.fprintf oc " %d" (Gf.Naive.count gv q)) qs;
              output_char oc '\n')
            vs)
  | _ -> die "usage: rwcheck DATASET SCALE ACKED VERSIONS QUERIES OUT"

(* --- input generation ------------------------------------------------- *)

(* templates: the paper's Q1..Q14 as "i<TAB>num_vertices<TAB>s-d,s-d,..". *)
let cmd_templates () =
  for i = 1 to 14 do
    let q = Gf.Patterns.q i in
    Printf.printf "%d\t%d\t%s\n" i (Gf.Query.num_vertices q)
      (String.concat ","
         (Array.to_list
            (Array.map (fun (e : Gf.Query.edge) -> Printf.sprintf "%d-%d" e.src e.dst) q.Gf.Query.edges)))
  done

(* adhoc DATASET SCALE SEED N OUT: N labeled queries grown from the data
   graph (so each has a match), in rounds of twelve: one query of each of
   4-9 vertices, sparse then dense. *)
let cmd_adhoc = function
  | [ ds; scale; seed; n; out ] ->
      let g = dataset ds (float_of_string scale) in
      let rng = Gf.Rng.create (int_of_string seed) in
      with_out out (fun oc ->
          for i = 0 to int_of_string n - 1 do
            let k = i mod 12 in
            let rec grow () =
              match Gf.Query_gen.from_data g rng ~num_vertices:(4 + (k / 2)) ~dense:(k mod 2 = 1) with
              | q -> q
              | exception Invalid_argument _ -> grow ()
            in
            output_string oc (to_dsl (grow ()));
            output_char oc '\n'
          done)
  | _ -> die "usage: adhoc DATASET SCALE SEED N OUT"

(* mutations DATASET SCALE SEED N OUT: N edge mutations, each valid
   against the live edge set at its point in the stream: addedge of an
   absent non-loop edge (3 in 5) or deledge of a present one. *)
let cmd_mutations = function
  | [ ds; scale; seed; n; out ] ->
      let g = dataset ds (float_of_string scale) in
      let nv = Gf.Graph.num_vertices g in
      let h = genesis_edges g in
      let live = Gf_util.Int_vec.create () in
      (* [live] may hold deleted pairs; they are skipped when drawn. *)
      Hashtbl.iter (fun (u, v) () -> Gf_util.Int_vec.push live ((u * nv) + v)) h;
      let rng = Gf.Rng.create (int_of_string seed) in
      with_out out (fun oc ->
          for _ = 1 to int_of_string n do
            if Gf.Rng.int rng 5 < 3 then begin
              let rec pick () =
                let u = Gf.Rng.int rng nv and v = Gf.Rng.int rng nv in
                if u = v || Hashtbl.mem h (u, v) then pick () else (u, v)
              in
              let u, v = pick () in
              Hashtbl.replace h (u, v) ();
              Gf_util.Int_vec.push live ((u * nv) + v);
              Printf.fprintf oc "addedge %d %d\n" u v
            end
            else begin
              let rec pick () =
                let k = Gf_util.Int_vec.get live (Gf.Rng.int rng (Gf_util.Int_vec.length live)) in
                let e = (k / nv, k mod nv) in
                if Hashtbl.mem h e then e else pick ()
              in
              let u, v = pick () in
              Hashtbl.remove h (u, v);
              Printf.fprintf oc "deledge %d %d\n" u v
            end
          done)
  | _ -> die "usage: mutations DATASET SCALE SEED N OUT"

(* snapshot DATASET SCALE DIR: a one-generation store directory that
   [gfq serve --attach-snapshot DIR] maps. *)
let cmd_snapshot = function
  | [ ds; scale; dir ] ->
      let g = dataset ds (float_of_string scale) in
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      Gf.Graph_io.save_snapshot ~wal_version:1 g (Filename.concat dir "snap.0000000000000001.gfq")
  | _ -> die "usage: snapshot DATASET SCALE DIR"

(* --- per-layer probes --------------------------------------------------- *)

let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics

(* Repeat a batch until it has run for at least [min_s], [k] times over,
   and return the median seconds per batch. *)
let per_batch ?(k = 5) ?(min_s = 0.02) f =
  let one () =
    let reps = ref 0 and t0 = now () in
    while now () -. t0 < min_s || !reps = 0 do
      f ();
      incr reps
    done;
    (now () -. t0) /. float_of_int !reps
  in
  median (List.init k (fun _ -> one ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let renumber rng q =
  let n = Gf.Query.num_vertices q in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Gf.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Gf.Query.relabel_vertices q perm

let probe_graph ~ds ~scale ~work =
  let build_s, g = timed "graph" "Generators.dataset" (fun () -> dataset ds scale) in
  put "graph.build_s" build_s;
  let path = Filename.concat work "probe.gfq" in
  Gf.Graph_io.save_snapshot g path;
  let load_s =
    per_batch ~k:5 (fun () ->
        ignore (span "graph" "Graph_io.load_snapshot" (fun () -> Gf.Graph_io.load_snapshot path)))
  in
  Sys.remove path;
  put "graph.snapshot_load_s" load_s;
  put "graph.offheap_mb" (float_of_int (Gf.Graph.residency g).Gf.Graph.offheap_bytes /. 1048576.);
  g

let probe_parse lines =
  let n = List.length lines in
  let per =
    per_batch (fun () ->
        span "query" "Wire.parse_request" (fun () ->
            List.iter (fun l -> ignore (Wire.parse_request l)) lines))
  in
  put "query.parse_us" (per /. float_of_int (max 1 n) *. 1e6)

(* Catalogue fill and DP time per query: a fresh Db's first plan pays
   sampling and DP, the second DP alone (no plan cache attached). *)
let probe_planner g qs =
  let fills = ref [] and dps = ref [] in
  List.iter
    (fun q ->
      let db = Gf.Db.create g in
      let t1, _ = timed "catalog" "Db.plan(fresh)" (fun () -> Gf.Db.plan db q) in
      let t2 = per_batch ~k:3 ~min_s:0.005 (fun () -> ignore (span "optimizer" "Db.plan(dp)" (fun () -> Gf.Db.plan db q))) in
      fills := ((t1 -. t2) *. 1e3) :: !fills;
      dps := (t2 *. 1e3) :: !dps)
    qs;
  put "catalog.fill_ms" (median !fills);
  put "optimizer.dp_ms" (median !dps);
  (* Cache hits: a renumbered isomorph of a cached query. *)
  let pc = Gf.Plan_cache.create () in
  let db = Gf.Db.create ~plan_cache:pc g in
  let rng = Gf.Rng.create 7 in
  let hits =
    List.map
      (fun q ->
        ignore (Gf.Db.plan db q);
        let iso = renumber rng q in
        per_batch ~k:3 ~min_s:0.005 (fun () ->
            ignore (span "optimizer" "Db.plan(cache-hit)" (fun () -> Gf.Db.plan db iso)))
        *. 1e6)
      qs
  in
  put "optimizer.cache_hit_us" (median hits)

(* One Db plans the query sample in order; a T0 (single-domain [Exec])
   pass over those plans gives the exact counters and catalogue size. *)
let t0_pass g qs =
  let db = Gf.Db.create g in
  let plans = List.map (fun q -> fst (span "optimizer" "Db.plan" (fun () -> Gf.Db.plan db q))) qs in
  put "catalog.entries" (float_of_int (Gf.Catalog.num_entries (Gf.Db.catalog db)));
  let c = Gf.Counters.create () in
  let seq_s =
    List.fold_left
      (fun acc p ->
        let dt, cs = timed "exec" "Exec.run" (fun () -> Gf.Exec.run g p) in
        Gf.Counters.add c cs;
        acc +. dt)
      0. plans
  in
  put "exec.seq_ms" (seq_s *. 1e3);
  put "exec.icost" (float_of_int c.Gf.Counters.icost);
  put "exec.intermediate" (float_of_int (Gf.Counters.intermediate c));
  put "exec.output" (float_of_int c.Gf.Counters.output);
  put "exec.ei_cache_hits" (float_of_int c.Gf.Counters.cache_hits);
  put "exec.hj_build_tuples" (float_of_int c.Gf.Counters.hj_build_tuples);
  put "exec.hj_probe_tuples" (float_of_int c.Gf.Counters.hj_probe_tuples);
  (db, plans)

(* The T0 pass, then the T1 pass through [Db.run_gov ~domains:2], the
   parallel scheduler's balance and the per-operator q-errors. *)
let probe_exec g qs =
  let db, plans = t0_pass g qs in
  let par_s =
    List.fold_left
      (fun acc q -> acc +. fst (timed "exec" "Db.run_gov(domains=2)" (fun () -> Gf.Db.run_gov ~domains:2 db q)))
      0. qs
  in
  put "exec.par_ms" (par_s *. 1e3);
  let steals = ref 0 and maxs = ref 0. and means = ref 0. in
  List.iter
    (fun p ->
      let r = span "exec" "Parallel.run(domains=2)" (fun () -> Gf.Parallel.run ~domains:2 g p) in
      let busy = Array.map (fun (c : Gf.Counters.t) -> c.Gf.Counters.busy_s) r.Gf.Parallel.per_domain in
      steals := !steals + r.Gf.Parallel.counters.Gf.Counters.steals;
      maxs := !maxs +. Array.fold_left max 0. busy;
      means := !means +. (Array.fold_left ( +. ) 0. busy /. float_of_int (max 1 (Array.length busy))))
    plans;
  put "exec.imbalance" (if !means > 0. then !maxs /. !means else 1.);
  put "exec.steals" (float_of_int !steals);
  let qerrs =
    List.concat_map
      (fun q ->
        let a = span "catalog" "Db.explain_analyze" (fun () -> Gf.Db.explain_analyze db q) in
        List.map (fun (r : Gf.Explain.row) -> r.Gf.Explain.card_q) a.Gf.Db.rows)
      qs
  in
  put "catalog.qerror_p50" (median qerrs)

(* ns per input element of a pairwise intersection over out-adjacency
   lists of vertex pairs drawn from the graph. *)
let probe_kernel g =
  let n = Gf.Graph.num_vertices g in
  let rng = Gf.Rng.create 11 in
  let pairs =
    Array.init 2000 (fun _ ->
        let u = Gf.Rng.int rng n and v = Gf.Rng.int rng n in
        ( Gf.Graph.neighbours_any_nlabel g Gf.Graph.Fwd u ~elabel:0,
          Gf.Graph.neighbours_any_nlabel g Gf.Graph.Fwd v ~elabel:0 ))
  in
  let elems =
    Array.fold_left (fun acc (a, b) -> acc + Gf.Sorted.slice_len a + Gf.Sorted.slice_len b) 0 pairs
  in
  let out = Gf_util.Int_vec.create () and scratch = Gf_util.Int_vec.create () in
  let per =
    per_batch (fun () ->
        span "kernel" "Sorted.intersect" (fun () ->
            Array.iter
              (fun (a, b) ->
                Gf_util.Int_vec.clear out;
                Gf.Sorted.intersect out [| a; b |] ~scratch)
              pairs))
  in
  put "kernel.intersect_ns_per_elem" (per /. float_of_int (max 1 elems) *. 1e9)

let reply_of_rows rows =
  let c = Gf.Counters.create () in
  c.Gf.Counters.output <- List.length rows;
  {
    Service.id = 1;
    result =
      {
        Ladder.outcome = Gf.Governor.Completed;
        counters = c;
        attempts = 1;
        retries = 0;
        degraded = false;
        rung = "full";
        backoffs = [];
      };
    rows;
    queue_s = 0.;
    exec_s = 0.;
    record_id = 0;
    traced = false;
    trace_obj = None;
    graph_version = 0;
  }

(* Row serialization: [Wire.ok_run] and the cluster's [Proto] codec over
   the rows of a shard reply captured from a live worker. *)
let probe_codec captured =
  let rows =
    match read_lines captured with
    | line :: _ -> span "proto" "Proto.json_rows" (fun () -> Proto.json_rows line)
    | [] -> die "empty captured reply %s" captured
  in
  let rows = if rows = [] then [ [| 0; 1 |] ] else rows in
  let n = float_of_int (List.length rows) in
  let reply = reply_of_rows rows in
  let ser = per_batch ~k:3 (fun () -> ignore (span "wire" "Wire.ok_run" (fun () -> Wire.ok_run ~reply))) in
  put "wire.serialize_us_per_row" (ser /. n *. 1e6);
  let enc = ref "" in
  let e =
    per_batch ~k:3 (fun () ->
        enc := span "proto" "Proto.shard_resp" (fun () -> Proto.shard_resp ~node:"w0" ~part:(0, 2) reply))
  in
  put "proto.encode_us_per_row" (e /. n *. 1e6);
  let d = per_batch ~k:3 (fun () -> ignore (span "proto" "Proto.json_rows" (fun () -> Proto.json_rows !enc))) in
  put "proto.decode_us_per_row" (d /. n *. 1e6)

(* The write path in-process: per-operation WAL append (the store call)
   and group-commit sync, then one explicit merge. *)
let probe_wal g ~work =
  let dir = Filename.concat work "probe-store" in
  rm_rf dir;
  match Store.open_store ~init:g dir with
  | Error e -> die "probe store: %s" (Store.open_error_to_string e)
  | Ok st ->
      let n = Gf.Graph.num_vertices g in
      let rng = Gf.Rng.create 13 in
      let appends = ref [] and syncs = ref [] and k = 300 in
      let synced () = Gf.Metrics.counter_value (Gf.Metrics.counter "gf_wal_syncs_total") in
      let syncs0 = synced () and bytes0 = dir_bytes dir in
      let added = ref [] in
      for i = 1 to k do
        let dt, _ =
          timed "wal" "Store.add_edge/del_edge" (fun () ->
              match !added with
              | (u, v) :: tl when i mod 4 = 0 ->
                  added := tl;
                  ignore (Store.del_edge st u v ~elabel:0)
              | _ ->
                  let rec go () =
                    let u = Gf.Rng.int rng n and v = Gf.Rng.int rng n in
                    if u = v || Gf.Graph.has_edge (Store.graph st) u v ~elabel:0 || List.mem (u, v) !added then go ()
                    else begin
                      added := (u, v) :: !added;
                      ignore (Store.add_edge st u v ~elabel:0)
                    end
                  in
                  go ())
        in
        appends := (dt *. 1e6) :: !appends;
        let ds, _ = timed "wal" "Store.sync" (fun () -> Store.sync st) in
        syncs := (ds *. 1e6) :: !syncs
      done;
      (* Means: one call is a few microseconds, near the clock's resolution. *)
      let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      put "wal.append_us" (mean !appends);
      put "wal.sync_us" (mean !syncs);
      put "wal.syncs_per_write" (float_of_int (synced () - syncs0) /. float_of_int k);
      put "wal.bytes_per_write" (float_of_int (dir_bytes dir - bytes0) /. float_of_int k);
      let dm, _ = timed "wal" "Store.merge_now" (fun () -> Store.merge_now st) in
      put "wal.merge_ms" (dm *. 1e3);
      Store.close st;
      rm_rf dir

(* Tracing overhead: the paper mix on the google analogue (scale 0.02),
   executed untraced and with a span trace, best of two passes each. *)
let probe_obs () =
  let g = Gf.Generators.dataset ~scale:0.02 Gf.Generators.Google in
  let db = Gf.Db.create g in
  let qs = List.init 14 (fun i -> Gf.Patterns.q (i + 1)) in
  List.iter (fun q -> ignore (Gf.Db.plan db q)) qs;
  let pass traced =
    List.fold_left
      (fun acc q ->
        let trace = if traced then Some (Gf.Trace.create ()) else None in
        let t0 = now () in
        ignore (Gf.Db.run_gov ?trace db q);
        acc +. (now () -. t0))
      0. qs
  in
  let untraced = ref infinity and traced = ref infinity in
  for _ = 1 to 2 do
    untraced := min !untraced (span "obs" "run_gov(untraced)" (fun () -> pass false));
    traced := min !traced (span "obs" "run_gov(trace)" (fun () -> pass true))
  done;
  put "obs.trace_overhead_pct" ((!traced -. !untraced) /. !untraced *. 100.);
  Printf.eprintf "obs: paper mix untraced %.1f ms, traced %.1f ms (base: untraced)\n%!"
    (!untraced *. 1e3) (!traced *. 1e3)

let write_metrics out =
  with_out out (fun oc ->
      output_string oc "{";
      output_string oc
        (String.concat ","
           (List.rev_map (fun (k, v) -> Printf.sprintf "\"%s\":%.17g" k v) !metrics));
      output_string oc "}\n")

(* exact DATASET SCALE QUERIES OUT: the counts of a T0 pass that must
   repeat exactly for a given query sample. *)
let cmd_exact = function
  | [ ds; scale; qfile; out ] ->
      let g = dataset ds (float_of_string scale) in
      ignore (t0_pass g (List.map parse_dsl (read_lines qfile)));
      metrics := List.filter (fun (k, _) -> k <> "exec.seq_ms") !metrics;
      write_metrics out
  | _ -> die "usage: exact DATASET SCALE QUERIES OUT"

(* layers DATASET SCALE QUERIES LINES WORK OUT SPANS CAPTURED_REPLY *)
let cmd_layers = function
  | [ ds; scale; qfile; lines; work; out; spans_out; captured ] ->
      let g = probe_graph ~ds ~scale:(float_of_string scale) ~work in
      let qs = List.map parse_dsl (read_lines qfile) in
      probe_parse (read_lines lines);
      probe_planner g qs;
      probe_exec g qs;
      probe_kernel g;
      probe_codec captured;
      probe_wal g ~work;
      probe_obs ();
      write_metrics out;
      write_spans spans_out
  | _ -> die "usage: layers DATASET SCALE QUERIES LINES WORK OUT SPANS CAPTURED_REPLY"

let () =
  match Array.to_list Sys.argv with
  | _ :: "naive" :: a -> cmd_naive a
  | _ :: "rwcheck" :: a -> cmd_rwcheck a
  | _ :: "templates" :: _ -> cmd_templates ()
  | _ :: "adhoc" :: a -> cmd_adhoc a
  | _ :: "mutations" :: a -> cmd_mutations a
  | _ :: "snapshot" :: a -> cmd_snapshot a
  | _ :: "layers" :: a -> cmd_layers a
  | _ :: "exact" :: a -> cmd_exact a
  | _ -> die "usage: pbtool (naive|rwcheck|templates|adhoc|mutations|snapshot|exact|layers) ..."
