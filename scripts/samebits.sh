#!/usr/bin/env bash
# samebits.sh <rev> — does the working tree give the same bits as <rev>?
# Extracts both with `git archive` under .bench_build/samebits/ (rev/ and
# work/; the working tree is archived as `git add -A` would commit it, so
# edits and new unignored files count), then on each copy runs the
# bit-identity goldens and `vpbench -exp all -scale quick -csv`, and prints
# one line per golden and per figure CSV: identical, or what differs. A
# golden is identical when it passes on both copies and its test file is
# unedited; a CSV when its bytes are equal. fig16.csv holds measured wall
# clock, so only its series and CDF columns are compared.
# Exits 0 when every line says identical, 1 otherwise. Needs no network;
# everything it writes is under .bench_build/. Takes a few minutes.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 <rev>" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$root/.bench_build/samebits"
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"

rm -rf "$dir"
mkdir -p "$dir/rev" "$dir/work"
git -C "$root" archive "$rev" | tar -x -C "$dir/rev"
export GIT_INDEX_FILE="$dir/index"
git -C "$root" add -A
git -C "$root" archive "$(git -C "$root" write-tree)" | tar -x -C "$dir/work"
unset GIT_INDEX_FILE

# package:test — the goldens that pin answers to Float64bits or bytes.
goldens="internal/sift:TestDetectGolden internal/imaging:TestGaussianBlurGolden
internal/server:TestSessionWalkGolden internal/lsh:TestWriteToBytesPinned
.:TestPipelineAnswersGolden"

for side in rev work; do
	echo "== $side: goldens and vpbench -exp all -scale quick ==" >&2
	for g in $goldens; do
		pkg="${g%%:*}" name="${g#*:}"
		(cd "$dir/$side" && go test -count=1 -v -run "^$name\$" "./$pkg") >"$dir/$side-$name.log" 2>&1 || true
	done
	(cd "$dir/$side" && go run ./cmd/vpbench -exp all -scale quick -csv "$dir/$side-csv") >"$dir/$side-vpbench.txt"
done

# first_diff A B prints the first row where files A (rev) and B (work)
# disagree.
first_diff() {
	awk 'NR == FNR { a[FNR] = $0; n = FNR; next }
		!(FNR in a) || a[FNR] != $0 { printf "row %d: rev %s, work %s\n", FNR, (FNR in a) ? a[FNR] : "<none>", $0; d = 1; exit }
		{ m = FNR }
		END { if (!d && n > m) printf "row %d: rev %s, work <none>\n", m + 1, a[m + 1] }' "$1" "$2"
}

status=0
report() { # name verdict
	echo "$1: $2"
	if [ "$2" != identical ]; then status=1; fi
}
for g in $goldens; do
	pkg="${g%%:*}" name="${g#*:}"
	verdict=identical
	for side in rev work; do
		if ! grep -q -- "--- PASS: $name " "$dir/$side-$name.log"; then
			verdict="not green on $side (see .bench_build/samebits/$side-$name.log)"
		fi
	done
	file="$(cd "$dir/work" && grep -l "^func $name(" "$pkg"/*_test.go || true)"
	if [ "$verdict" = identical ] && ! cmp -s "$dir/rev/$file" "$dir/work/$file"; then
		verdict="test file $file edited"
	fi
	report "golden $name ($pkg)" "$verdict"
done
for f in $(cd "$dir" && ls rev-csv work-csv | grep '\.csv$' | sort -u); do
	a="$dir/rev-csv/$f" b="$dir/work-csv/$f"
	if [ ! -f "$a" ] || [ ! -f "$b" ]; then
		report "csv $f" "written on one side only"
	elif [ "$f" = fig16.csv ]; then
		if cmp -s <(cut -d, -f1,3 "$a") <(cut -d, -f1,3 "$b"); then
			report "csv $f" identical
		else
			report "csv $f" "$(first_diff <(cut -d, -f1,3 "$a") <(cut -d, -f1,3 "$b"))"
		fi
	elif cmp -s "$a" "$b"; then
		report "csv $f" identical
	else
		report "csv $f" "$(first_diff "$a" "$b")"
	fi
done
exit $status
