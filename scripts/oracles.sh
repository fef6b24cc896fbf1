#!/usr/bin/env bash
# The byte-identity oracles that fence every behaviour-preserving change:
# builds the CLIs of a reference revision and of the working tree, runs the
# deterministic (virtual-time, fixed-seed) commands on both and diffs every
# byte they print or write.  Exits non-zero on any difference — except in the
# output files a change names as the ones it means to move, whose diff is
# printed instead.  An allowed skyshard-sim100.txt must still load the same
# rows onto the same shards.
#
#   scripts/oracles.sh <rev> [allowed-file ...]
#   (or: make oracles REF=<rev> ALLOW=skyshard-sim100.txt)
#
# The reference is exported with `git archive` into .bench_build/oracle-ref
# (not a worktree), and every output stays under .bench_build/.
set -euo pipefail

ref="${1:?usage: scripts/oracles.sh <rev> [allowed-file ...]}"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

rm -rf "$out/oracle-ref" "$out/oracle-bin" "$out/oracle-out"
mkdir -p "$out/oracle-ref" "$out/oracle-bin/ref" "$out/oracle-bin/head"
git -C "$root" archive "$ref" | tar -x -C "$out/oracle-ref"
(cd "$out/oracle-ref" && go build -o "$out/oracle-bin/ref/" ./cmd/skybench ./cmd/skyload ./cmd/skyserve ./cmd/skyshard)
(cd "$root" && go build -o "$out/oracle-bin/head/" ./cmd/skybench ./cmd/skyload ./cmd/skyserve ./cmd/skyshard)

for side in ref head; do
	bin="$out/oracle-bin/$side"
	dir="$out/oracle-out/$side"
	mkdir -p "$dir"
	(
		cd "$dir"
		"$bin/skybench" -all -quick -csv csv >skybench.txt
		"$bin/skyload" -loaders 4 -size 20 -files 8 -v >skyload.txt
		"$bin/skyload" -crash -seed 7 -size 2 >skyload-crash-7.txt
		"$bin/skyload" -crash -seed 42 -size 2 >skyload-crash-42.txt
		"$bin/skyserve" -engine des >skyserve.txt
		"$bin/skyserve" -engine des -mixed >skyserve-mixed.txt
		"$bin/skyserve" -fig8 >skyserve-fig8.txt
		"$bin/skyshard" -sim 100 >skyshard-sim100.txt
	)
done

# The rows a sim loaded and where: the "load: N rows" count and each shard's
# rows column.
sim_rows() { sed -n -e 's/^  load:  \([0-9]*\) rows.*/load \1/p' -e 's/^  \(shard *[0-9]*\): *\([0-9]*\) rows.*/\1 \2/p' "$1"; }

excludes=()
for f in "$@"; do
	excludes+=(-x "$f")
	echo "oracles: $f against $ref (allowed to differ):"
	if diff "$out/oracle-out/ref/$f" "$out/oracle-out/head/$f"; then
		echo "oracles: $f was allowed to differ from $ref and does not" >&2
		exit 1
	fi
	if [ "$f" = skyshard-sim100.txt ] && ! diff <(sim_rows "$out/oracle-out/ref/$f") <(sim_rows "$out/oracle-out/head/$f"); then
		echo "oracles: $f loads different rows than $ref" >&2
		exit 1
	fi
done

if diff -r ${excludes[@]+"${excludes[@]}"} "$out/oracle-out/ref" "$out/oracle-out/head"; then
	echo "oracles: no difference against $ref ($(ls "$out/oracle-out/head/csv" | wc -l) CSVs and $((8 - $#)) command outputs; $# allowed to differ)"
else
	echo "oracles: outputs differ from $ref" >&2
	exit 1
fi
