#!/usr/bin/env bash
# bench-pair.sh <commitA> <commitB> [pairs=10] — the way to support a
# performance claim. Checks the two commits out as git worktrees under
# .bench_build/pair/, runs every workload of BENCHMARK.json on both with
# each commit's own benchmark/run.sh, A first on odd pairs and B first on
# even ones (so neither side always inherits the other's warm machine), and
# finishes with `benchmark/run.sh -compare a.json b.json` and its exit
# status. A single run on a shared host says nothing (benchmark/README.md
# "The statistic"); ten alternating pairs is what a claim is judged on.
# Needs no network; everything it writes is under .bench_build/.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <commitA> <commitB> [pairs=10]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs="${3:-10}"
dir="$root/.bench_build/pair"

remove_worktrees() {
	for side in a b; do
		git -C "$root" worktree remove --force "$dir/$side" 2>/dev/null || true
	done
}
trap remove_worktrees EXIT
remove_worktrees
mkdir -p "$dir"
rm -f "$dir/a.json" "$dir/b.json"
git -C "$root" worktree add --detach "$dir/a" "$1" >&2
git -C "$root" worktree add --detach "$dir/b" "$2" >&2

for workload in frame_walk fingerprint_arrivals session_walk wardrive_mix; do
	for pair in $(seq 1 "$pairs"); do
		order="a b"
		if [ $((pair % 2)) -eq 0 ]; then
			order="b a"
		fi
		for side in $order; do
			echo "== $workload pair $pair/$pairs: $side ==" >&2
			bash "$dir/$side/benchmark/run.sh" --workload "$workload" --seed 1 \
				-out "$dir/$side.json" >/dev/null
		done
	done
done

# The commit ids -compare prints come from Go's VCS stamp, which in a linked
# worktree reads the main checkout; these two lines are the sides' real ones.
echo "a: $(git -C "$root" rev-parse "$1^{commit}") ($1)"
echo "b: $(git -C "$root" rev-parse "$2^{commit}") ($2)"
bash "$root/benchmark/run.sh" -compare "$dir/a.json" "$dir/b.json"
