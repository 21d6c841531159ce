#!/usr/bin/env bash
# Paired benchmark runs, the protocol benchmark/README.md describes, as one
# command: BASE (any git revision) against the working tree, N runs of the
# untraced suite a side with the sides taking turns, then -compare.
#
#   scripts/bench-pair.sh <base-rev> [pairs=10] [benchmark flags, e.g. -seed 2 -seconds 15]
#
# BASE is extracted with `git archive` under .bench_build/ (removed again on
# exit). Both sides are built and run by their own benchmark/run.sh, in its
# environment: the command BENCHMARK.json declares. Result files, one log
# per run and the merged base.json / head.json stay in .bench_build/pair/.
set -euo pipefail
base=${1:?usage: scripts/bench-pair.sh <base-rev> [pairs] [benchmark flags...]}
pairs=${2:-10}
shift
[ $# -gt 0 ] && shift
cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify "$base^{commit}")
tree="$root/.bench_build/pair-base"
out="$root/.bench_build/pair"
rm -rf "$out"
mkdir -p "$out"
rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$sha" | tar -x -C "$tree"

run() { # run <side> <checkout> <pair>: one untraced suite run
	echo "pair $3/$pairs: $1"
	(cd "$2" && bash benchmark/run.sh -workdir "$out/$1-$3" "${@:4}") >"$out/$1-$3.log" 2>&1 ||
		{ echo "bench-pair: $1 run $3 failed, see $out/$1-$3.log" >&2; exit 1; }
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tree" "$i" "$@"
		run head "$root" "$i" "$@"
	else
		run head "$root" "$i" "$@"
		run base "$tree" "$i" "$@"
	fi
done
# One result file a side: the runs of every pair, workload by workload.
for side in base head; do
	jq -s 'reduce .[1:][] as $r (.[0]; .workloads |= map(.name as $n
		| .untraced += [$r.workloads[] | select(.name == $n) | .untraced[]]))' \
		"$out/$side"-*/result-seed*.json >"$out/$side.json"
done
"$root/.bench_build/aerie-benchmark" -compare "$out/base.json" "$out/head.json"
