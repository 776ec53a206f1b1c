#!/bin/sh
# Paired performance gate. Builds the repository's benchmark from this
# checkout and from a base commit, runs both on the three workloads that
# step the cycle kernel, back to back on one host, and judges each pairing
# with the benchmark's own -compare verdicts (median change against each
# metric's bound, quartile spread against the same bound). Absolute times
# move from host to host; a pairing on one host does not.
#
#	.github/perfgate.sh <base-rev>
#
# Run it from anywhere inside the checkout. It writes bench-base-<w>.json,
# bench-head-<w>.json and bench-compare-<w>.txt into the current directory
# and exits 1 when a workload has a metric judged worse, a digest that
# differs between the two sides, a failed op, or no comparison at all. An
# unresolved verdict (runs too spread out to tell) stays in the report but
# does not fail the gate; -compare's own exit status counts it as a
# failure, so the script reads the report instead.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-rev>" >&2
	exit 2
fi
base=$1
head=$(git rev-parse --show-toplevel)
out=$(pwd)
if ! git -C "$head" rev-parse --quiet --verify "$base^{commit}" >/dev/null; then
	echo "perfgate: $base does not name a commit" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$head" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./benchmark)
(cd "$head" && go build -o "$tmp/bench-head" ./benchmark)

# run SIDE WORKLOAD: one 15 s benchmark run, the length BENCHMARK.json
# gives. A run that exits non-zero still leaves its result file when only
# ops failed, and -compare reports those; one that leaves none shows up
# as a missing comparison.
run() {
	rm -f "$out/bench-$1-$2.json"
	"$tmp/bench-$1" -workload "$2" -seconds 15 -out "$out/bench-$1-$2.json" >/dev/null ||
		echo "perfgate: the $1 run of $2 exited $?"
}

fail=0
first=base
second=head
for w in sim-pearl-long sim-policy-short sim-cmesh; do
	run "$first" "$w"
	run "$second" "$w"
	# The other side goes first on the next workload, so a host that
	# drifts over a run favours neither.
	t=$first
	first=$second
	second=$t
	report="$out/bench-compare-$w.txt"
	"$tmp/bench-head" -compare "$out/bench-base-$w.json" "$out/bench-head-$w.json" >"$report" 2>&1 || true
	cat "$report"
	if awk -v w="$w" '
		$1 == w && $NF == "worse" { bad = 1 }
		$1 == w && $2 == "failed" && $3 == "ops:" { bad = 1 }
		$1 == w && $2 == "digests:" { seen = 1; if ($5 != 0) bad = 1 }
		END { exit !(seen && !bad) }' "$report"; then
		echo "perfgate: $w passes"
	else
		echo "perfgate: $w FAILS (a worse verdict, a digest that differs, a failed op or no comparison)"
		fail=1
	fi
	echo
done
exit "$fail"
