#!/usr/bin/env bash
# Runs the bench gates from one table. For each row it builds the row's
# targets, runs the row's commands twice (bench-out/<row>/1 and /2), fails
# unless every output file is byte-identical across the two runs once
# wall-clock lines are stripped, runs the row's validators on run 1, and
# copies the archived outputs to their committed BENCH_*.json names.
# The gated binaries exit non-zero on their own acceptance failures, which
# fails the row too.
#
# Usage: tools/bench_gates.sh <build-dir> <row>... | all
#
# Archived numbers must come from an optimized build: a Debug run distorts
# every figure (the engine-throughput ones by an order of magnitude). Set
# PBXCAP_BENCH_ALLOW_DEBUG=1 to run anyway; every archived file is then
# tagged with a .non-release.json suffix so it can never be mistaken for
# the committed baseline.
set -euo pipefail

# ---- the table ---------------------------------------------------------
# cmds/checks are newline-separated shell commands run inside the run
# directory, with $B the build directory and $T the tools directory.
# outputs are byte-compared across the two runs; a row without compared
# outputs (the timing-only perf snapshot) runs once. archive maps an
# output file to its committed name.
rows=(telemetry chaos cluster fluid codec acd shard profile perf)
declare -A targets cmds outputs checks archive

targets[telemetry]="bench_table1_empirical"
cmds[telemetry]='$B/bench/bench_table1_empirical --fast --metrics-out table1_metrics.prom --series-out table1_series.csv --trace-out table1_trace.json'
outputs[telemetry]="table1_metrics.prom table1_series.csv table1_trace.json"
checks[telemetry]='python3 $T/check_telemetry.py table1_metrics.prom table1_series.csv table1_trace.json'

targets[chaos]="bench_overload_collapse"
cmds[chaos]='$B/bench/bench_overload_collapse --fast --json overload_collapse.json
$B/bench/bench_overload_collapse --chaos chaos_metrics.prom'
outputs[chaos]="overload_collapse.json chaos_metrics.prom"
archive[chaos]="overload_collapse.json:BENCH_overload_collapse.json"

targets[cluster]="bench_cluster_dispatch"
cmds[cluster]='$B/bench/bench_cluster_dispatch --fast --json cluster_dispatch.json
$B/bench/bench_cluster_dispatch --fast --trace crash_trace.json'
outputs[cluster]="cluster_dispatch.json crash_trace.json"
checks[cluster]='python3 $T/check_telemetry.py --merged-trace crash_trace.json
grep -q dispatch.failover crash_trace.json
grep -q "\"fault\\." crash_trace.json'
archive[cluster]="cluster_dispatch.json:BENCH_cluster_dispatch.json"

targets[fluid]="bench_fluid_ablation"
cmds[fluid]='$B/bench/bench_fluid_ablation --fast --json fluid_ablation.json'
outputs[fluid]="fluid_ablation.json"
archive[fluid]="fluid_ablation.json:BENCH_fluid_ablation.json"

targets[codec]="bench_codec_capacity"
cmds[codec]='$B/bench/bench_codec_capacity --fast --json codec_capacity.json'
outputs[codec]="codec_capacity.json"
archive[codec]="codec_capacity.json:BENCH_codec_capacity.json"

targets[acd]="bench_erlang_c_queue"
cmds[acd]='$B/bench/bench_erlang_c_queue --fast --json erlang_ca.json'
outputs[acd]="erlang_ca.json"
archive[acd]="erlang_ca.json:BENCH_erlang_ca.json"

targets[shard]="bench_cluster_scaling"
cmds[shard]='$B/bench/bench_cluster_scaling --shards --fast --json shard_scaling.json --attr-json shard_attribution.json'
outputs[shard]="shard_scaling.json shard_attribution.json"
checks[shard]='python3 $T/check_telemetry.py --attribution shard_attribution.json'
archive[shard]="shard_scaling.json:BENCH_shard_scaling.json shard_attribution.json:BENCH_shard_attribution.json"

targets[profile]="pbxcap_cli"
cmds[profile]='$B/tools/pbxcap profile 100 --window 30 --json-out profile.json --counters-out profile_counters.json'
outputs[profile]="profile.json profile_counters.json"
checks[profile]='python3 $T/check_telemetry.py --profile profile.json $T/profile_events.json'

targets[perf]="bench_perf_engine bench_telemetry_overhead"
cmds[perf]='$B/bench/bench_perf_engine --benchmark_out=perf.json --benchmark_out_format=json --benchmark_format=console
$B/bench/bench_telemetry_overhead --json telemetry_overhead.json'
archive[perf]="perf.json:BENCH_perf.json telemetry_overhead.json:BENCH_telemetry_overhead.json"

# Lines carrying host timing; everything else must match byte for byte.
wall_filter='(wall_[a-z_]*s|speedup)'
# ------------------------------------------------------------------------

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <build-dir> <row>... | all   (rows: ${rows[*]})" >&2
  exit 2
fi
B="$(cd "$1" && pwd)"
T="$(cd "$(dirname "$0")" && pwd)"
export B T
shift
[[ "$1" == all ]] && set -- "${rows[@]}"
for row in "$@"; do
  if [[ -z "${cmds[$row]+x}" ]]; then
    echo "error: unknown row '${row}' (rows: ${rows[*]})" >&2
    exit 2
  fi
done

# An empty cache entry means the project default, Release.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${B}/CMakeCache.txt")"
build_type="${build_type:-Release}"
tag=""
if [[ "${build_type}" != "Release" && "${build_type}" != "RelWithDebInfo" ]]; then
  if [[ "${PBXCAP_BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
    echo "error: ${B} is a '${build_type}' build, not Release; rebuild with" >&2
    echo "  cmake -B ${B} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${B} -j" >&2
    echo "or set PBXCAP_BENCH_ALLOW_DEBUG=1 to tag-and-run anyway." >&2
    exit 1
  fi
  echo "WARNING: benchmarking a '${build_type}' build; archived files tagged non-release." >&2
  tag=".non-release"
fi

for row in "$@"; do
  echo "== ${row} =="
  # shellcheck disable=SC2086  # target lists are word-split on purpose
  cmake --build "${B}" -j "$(nproc)" --target ${targets[$row]}
  runs=(1 2)
  [[ -n "${outputs[$row]:-}" ]] || runs=(1)
  for run in "${runs[@]}"; do
    dir="bench-out/${row}/${run}"
    rm -rf "${dir}" && mkdir -p "${dir}"
    (cd "${dir}" && bash -euo pipefail -c "${cmds[$row]}") ||
      { echo "FAIL: ${row}: run ${run} exited non-zero" >&2; exit 1; }
  done
  for f in ${outputs[$row]:-}; do
    a="bench-out/${row}/1/${f}" b="bench-out/${row}/2/${f}"
    if [[ ! -f "${a}" || ! -f "${b}" ]] ||
       ! cmp <(grep -vE "${wall_filter}" "${a}") <(grep -vE "${wall_filter}" "${b}"); then
      echo "FAIL: ${row}: ${f} missing or different between two same-seed runs" >&2
      exit 1
    fi
  done
  [[ -z "${checks[$row]:-}" ]] || (cd "bench-out/${row}/1" && bash -euo pipefail -c "${checks[$row]}") ||
    { echo "FAIL: ${row}: validator failed" >&2; exit 1; }
  for pair in ${archive[$row]:-}; do
    dest="${pair#*:}"
    cp "bench-out/${row}/1/${pair%%:*}" "${dest%.json}${tag}.json"
    echo "wrote ${dest%.json}${tag}.json"
  done
  echo "== ${row}: ok =="
done
