(* The benchmark's metric names, units, directions and regression bounds:
   the single source the printed results, the baseline record and the
   comparison read from (BENCHMARK.json must list the same names, which
   the smoke test checks). *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type m = { name : string; unit : string; better : better; bound : float }

let e2e name unit better bound = { name; unit; better; bound }
let layer ?(better = Lower) name unit = { name; unit; better; bound = nan }

(* Every timing bound is the 0.25 maximum: on the shared 2-vCPU VMs this
   runs on, whole runs drift by 10-30% with the neighbours' load (see
   README.md).  The byte counts repeat exactly, and memory nearly so. *)
let end_to_end =
  [ e2e "throughput_ops_s" "ops/s" Higher 0.25;
    e2e "get_p50_us" "us" Lower 0.25;
    e2e "get_p99_us" "us" Lower 0.25;
    e2e "write_p50_us" "us" Lower 0.25;
    e2e "write_p99_us" "us" Lower 0.25;
    e2e "durable_lag_p99_us" "us" Lower 0.25;
    e2e "recovery_ms" "ms" Lower 0.25;
    e2e "write_amp" "B/B" Lower 0.05;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.10 ]

(* Per-layer metrics carry no bound. *)
let per_layer =
  [ layer "palloc.free_us" "us";
    layer "palloc.free_per_op" "count";
    layer "palloc.alloc_us" "us";
    layer "palloc.alloc_per_op" "count";
    layer "palloc.share" "frac";
    layer ~better:Higher "group_commit.ops_per_engine_tx" "count";
    layer "group_commit.self_us" "us";
    layer "sharded_db.engine_tx_per_write" "count";
    layer "sharded_db.read_tx_per_write" "count";
    layer "sharded_db.cross_frac" "frac";
    layer "engine.read_tx_us" "us";
    layer "engine.read_tx_per_op" "count";
    layer "engine.update_tx_us" "us";
    layer "engine.commit_us" "us";
    layer "engine.tx_body_us" "us";
    layer "engine.update_tx_per_op" "count";
    layer "pmem.fences_per_op" "count";
    layer "pmem.pwbs_per_op" "count";
    layer "pmem.replicated_bytes_per_op" "B";
    layer "pmem.media_delay_us_per_op" "us";
    layer "pmem.nvm_bytes_per_op" "B";
    layer "recovery.shard_max_ms" "ms";
    layer "recovery.shard_sum_ms" "ms";
    layer "gc.minor_words_per_op" "words";
    layer "gc.major_collections" "count";
    layer "trace.overhead_frac" "frac";
    layer "trace.unattributed_frac" "frac" ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

(* Relative change of [now] against [base], signed so that positive is
   worse. *)
let worsening m ~base ~now =
  let d = (now -. base) /. Float.abs base in
  match m.better with Lower -> d | Higher -> -.d
