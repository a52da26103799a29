#!/usr/bin/env bash
# Run every experiment harness and archive outputs under results/.
# Parameters here are the defaults recorded in EXPERIMENTS.md; override
# with G500_* environment variables for bigger sweeps.
set -u
cd "$(dirname "$0")"
mkdir -p results
BIN=target/release

# `./run_experiments.sh perf` — instead of the experiment suite, thread-sweep
# the host-time microbench kernels (T ∈ {1,2,4}, re-exec'd children) and
# print a per-kernel speedup table against results/bench_baseline.json.
# The same binary gates CI; see README "Microbenchmarks & the perf gate".
if [ "${1:-}" = "perf" ]; then
  echo "=== perf: microbench thread sweep vs checked-in baseline ==="
  cargo build --release -p g500-bench --bin perf_gate || exit 1
  exec "$BIN/perf_gate" --report
fi

run() {
  local name="$1"
  echo "=== running $name ==="
  local start=$SECONDS
  if "$BIN/$name" >"results/$name.txt" 2>&1; then
    echo "  ok in $((SECONDS - start))s"
  else
    echo "FAILED: $name after $((SECONDS - start))s (see results/$name.txt)"
  fi
}

# Fault-injection defaults: perfect network (all rates zero/off). Set e.g.
# G500_DROP_RATE=0.05 G500_FAULT_SEED=1 to re-run any sweep over a lossy
# network — results must be identical; only retransmit counters and
# simulated time change.
export G500_FAULT_SEED="${G500_FAULT_SEED:-0}"
export G500_DROP_RATE="${G500_DROP_RATE:-0}"
export G500_DUP_RATE="${G500_DUP_RATE:-0}"
export G500_CORRUPT_RATE="${G500_CORRUPT_RATE:-0}"
export G500_REORDER_RATE="${G500_REORDER_RATE:-0}"
export G500_RETRY_BUDGET="${G500_RETRY_BUDGET:-16}"

# Recorded-run parameters; every binary accepts larger G500_* overrides.
# Budget: the whole suite ran in 324 s on a 2-core host (release binaries
# already built; T2 took 65 s and F9 139 s of it), and prints its total.
suite_start=$SECONDS
run t1_graph_stats
G500_SCALE_PER_RANK=14 G500_MAX_RANKS=128 G500_ROOTS=2 run t2_headline   # ~65 s; exits 1 under its recorded efficiency floor
run t3_ablation
G500_SCALE_PER_RANK=13 G500_MAX_RANKS=32 G500_ROOTS=3 run f1_weak_scaling   # exits 1 under its recorded floors
G500_SCALE=17 G500_MAX_RANKS=32 G500_ROOTS=4 run f2_strong_scaling
run f3_delta_sweep
run f4_breakdown
G500_MAX_SCALE=16 G500_ROOTS=2 run f5_algo_compare   # exits 1 unless its shape holds; 21 s
run f6_comm_volume
run f7_degree_dist
run f8_direction
run f9_dist_compare   # exits 1 unless its shape holds; 1.5-3 min here
run f10_bfs_vs_sssp
run f11_batching
run f12_partition_balance
run f13_2d_fanout
run f14_dist2d   # scales 11-15, 1 s
run f15_weight_dist
G500_SCALE=14 G500_RANKS=4 run f16_query_serving
echo "all experiments done in $((SECONDS - suite_start))s"
