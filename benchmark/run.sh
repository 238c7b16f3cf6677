#!/usr/bin/env bash
# Builds the benchmark, and the engine it pulls in from the repository root,
# into build/benchmark, then runs workloads, one process per workload.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--trace 0|1]
#   benchmark/run.sh --repeat K --out DIR [--workload W]... [--seed N]
#   benchmark/run.sh --ab BIN_A BIN_B --out DIR [--pairs P] [--workload W]... [--seed N]
#
# Without --workload every workload runs. Each run prints "name value unit"
# lines and, as its last line, one JSON result record. --repeat runs every
# workload K times and appends each record to DIR/<workload>.jsonl. --ab runs
# two prebuilt ocelot_benchmark binaries in P pairs, alternating which one
# runs first, writes DIR/a and DIR/b, and ends with compare.py on the two.
# --trace 1 prints the per-layer metrics instead of the end-to-end ones and
# writes the spans to build/benchmark/trace-<workload>-<seed>.json.
# A run measures for run_seconds of BENCHMARK.json, which the binary has
# compiled in; --seconds is accepted only with that value.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../build/benchmark"
all_workloads=(olap-sf1-multi olap-sf8-multi olap-sf8-par serve-sf1-multi)

# One pinned configuration: no OCELOT_* setting of the caller reaches the engine.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^OCELOT_' || true)

workloads=()
seed=1
trace=0
repeat=0
pairs=10
out=""
bin_a=""
bin_b=""
while (($#)); do
  case $1 in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds)
      run_seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
        "$here/../BENCHMARK.json")
      if [[ $2 != "$run_seconds" ]]; then
        echo "run.sh: a run measures run_seconds of BENCHMARK.json ($run_seconds), not $2" >&2
        exit 2
      fi
      shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --repeat) repeat=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --ab) bin_a=$2; bin_b=$3; shift 3 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
((${#workloads[@]})) || workloads=("${all_workloads[@]}")
if { ((repeat > 0)) || [[ -n $bin_a ]]; } && [[ -z $out ]]; then
  echo "run.sh: --repeat and --ab need --out DIR" >&2
  exit 2
fi

run_one() {  # run_one BINARY WORKLOAD
  "$1" --workload "$2" --seed "$seed" --trace "$trace"
}

record() {  # record BINARY WORKLOAD FILE: run, show the output, keep the record
  local res
  res=$(run_one "$1" "$2")
  printf '%s\n' "$res"
  printf '%s\n' "${res##*$'\n'}" >> "$3"
}

if [[ -n $bin_a ]]; then
  mkdir -p "$out/a" "$out/b"
  for ((p = 0; p < pairs; p++)); do
    for w in "${workloads[@]}"; do
      sides=(a b)
      ((p % 2 == 0)) || sides=(b a)
      for side in "${sides[@]}"; do
        bin=$bin_a
        [[ $side == a ]] || bin=$bin_b
        echo "== pair $p $w $side" >&2
        record "$bin" "$w" "$out/$side/$w.jsonl" >&2
      done
    done
  done
  exec python3 "$here/compare.py" "$out/a" "$out/b"
fi

# Build output goes to stderr: the last line on stdout is the result record.
jobs=$(nproc)
((jobs <= 4)) || jobs=4
cmake -S "$here" -B "$build" >&2
cmake --build "$build" -j "$jobs" >&2
bin="$build/ocelot_benchmark"

if ((repeat > 0)); then
  mkdir -p "$out"
  for ((r = 0; r < repeat; r++)); do
    for w in "${workloads[@]}"; do
      echo "== run $r $w" >&2
      record "$bin" "$w" "$out/$w.jsonl"
    done
  done
  exit 0
fi

for w in "${workloads[@]}"; do
  echo "== $w" >&2
  run_one "$bin" "$w"
done
