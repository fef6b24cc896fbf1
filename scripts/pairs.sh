#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, as one command.
#
#   scripts/pairs.sh [-quick] <parent> [change]
#   (or: make pairs REF=<parent> [CHANGE=<rev>] W=ingest-bulk N=10 SEED=4101 [QUICK=1])
#
# Exports both revisions with `git archive` under .bench_build/pairs/ — the
# change defaults to the work tree, taken as `git stash create` takes it (new
# files too) so that uncommitted work is measured without being touched —
# and builds each side's skyperf once.  Then, for each of N seeds from SEED
# up and each workload in W (comma-separated, or "all" for the five of
# BENCHMARK.json), it runs `bench/run.sh --workload W --seed S` on both
# sides, the parent first on even pairs and the change first on odd ones, and
# keeps each run's one-line JSON result, its full result file and the user
# and system CPU seconds bash's `time` measured around it (the whole child:
# its cached build, input generation, load and queries).  scripts/pairstat
# then writes one
# JSON report for the invocation (per workload and metric: both sides'
# medians and quartiles, the change's wins k of the n pairs, the exact
# two-sided sign-test p and a resolved/unresolved verdict; beside the
# wall-clock metrics, CPU seconds per row read and per query sent) and prints
# a Markdown table to paste into CHANGES.md.  Everything stays under
# .bench_build/pairs/.
set -euo pipefail

quick=()
if [ "${1:-}" = -quick ]; then
	quick=(-quick)
	shift
fi
parent="${1:?usage: scripts/pairs.sh [-quick] <parent> [change]}"
change="${2:-}"
workloads="${W:-ingest-bulk}"
pairs="${N:-10}"
seed="${SEED:-$(($(date +%s) % 90000 + 10000))}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

if [ "$workloads" = all ]; then
	workloads=ingest-bulk,ingest-durable,serve-hot,serve-mixed,shard-scatter
fi
if [ -z "$change" ]; then
	# What `git stash create` does, new files included: the work tree as a
	# commit no ref points at, written through a throwaway index.
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	index="$tmp/index"
	GIT_INDEX_FILE="$index" git -C "$root" read-tree HEAD
	GIT_INDEX_FILE="$index" git -C "$root" add -A
	tree="$(GIT_INDEX_FILE="$index" git -C "$root" write-tree)"
	change="$(GIT_AUTHOR_NAME=pairs GIT_AUTHOR_EMAIL=pairs@localhost GIT_COMMITTER_NAME=pairs GIT_COMMITTER_EMAIL=pairs@localhost \
		git -C "$root" commit-tree "$tree" -p HEAD -m "pairs: work tree")"
fi
parent="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
change="$(git -C "$root" rev-parse --verify "$change^{commit}")"

mkdir -p "$out"
(cd "$root" && go build -o "$out/pairstat" ./scripts/pairstat)
for side in parent change; do
	rm -rf "${out:?}/$side"
	mkdir -p "$out/$side"
	git -C "$root" archive "${!side}" | tar -x -C "$out/$side"
	# bench/run.sh builds skyperf before it runs it; building it here, with
	# -h, fills the side's build cache, so the timed runs reuse one binary.
	(cd "$out/$side" && bash bench/run.sh -h >/dev/null 2>&1)
done

stamp="$(date -u +%Y%m%dT%H%M%SZ)"
runs="$out/runs-$stamp"
mkdir -p "$runs"
echo "pairs: parent $parent, change $change, workloads $workloads, $pairs pairs from seed $seed${quick[*]:+, quick}"

# one side runs one workload on one seed; its result line, full result and
# CPU times go to files.
one() {
	local side="$1" w="$2" s="$3" log="$runs/$w-$s-$1.log" run="$runs/$w-$s-$1" status=0
	local TIMEFORMAT='%U %S'
	# time reports on the group's standard error, so the run's own output is
	# redirected inside the subshell.
	{ time (cd "$out/$side" && bash bench/run.sh ${quick[@]+"${quick[@]}"} --workload "$w" --seed "$s" >"$log" 2>&1) || status=$?; } 2>"$run.cpu"
	if ((status != 0)); then
		echo "pairs: $side $w seed $s failed; see $log" >&2
		exit 1
	fi
	tail -n 1 "$log" >"$run.json"
	cp "$out/$side/.bench_build/results/skyperf-seed$s.json" "$run.full.json"
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	for w in ${workloads//,/ }; do
		if ((i % 2 == 0)); then
			one parent "$w" "$s"
			one change "$w" "$s"
		else
			one change "$w" "$s"
			one parent "$w" "$s"
		fi
		echo "pairs: $w seed $s done"
	done
done

report="$out/pairs-$stamp.json"
echo "[" >"$report"
first=1
for w in ${workloads//,/ }; do
	files=()
	for ((i = 0; i < pairs; i++)); do
		files+=("$runs/$w-$((seed + i))-parent.json" "$runs/$w-$((seed + i))-change.json")
	done
	echo
	"$out/pairstat" -benchmark "$root/BENCHMARK.json" -workload "$w" -out "$runs/$w.json" "${files[@]}"
	((first)) || echo "," >>"$report"
	first=0
	cat "$runs/$w.json" >>"$report"
done
echo "]" >>"$report"
echo
echo "pairs: parent ${parent:0:7}, change ${change:0:7}, seeds $seed–$((seed + pairs - 1)); report $report"
