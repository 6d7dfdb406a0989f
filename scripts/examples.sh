#!/usr/bin/env bash
# Runs every examples/* program, and cmd/schedviz in each -mode with
# both -formats (and -events), and diffs each one's stdout against its
# golden under testdata/examples. Every output is deterministic, so a
# diff means a refactor changed a decision or a printed figure. With
# -update it rewrites the goldens instead.
#
# Run from the repository root:
#   scripts/examples.sh           # check (make examples)
#   scripts/examples.sh -update   # rewrite the goldens (make examples-update)
set -euo pipefail

GO=${GO:-go}
golden=testdata/examples
update=0
if [ "${1:-}" = "-update" ]; then
	update=1
	mkdir -p "$golden"
fi
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0

# run NAME CMD... runs CMD, failing on a non-zero exit, and checks or
# rewrites the golden NAME.txt.
run() {
	local name=$1
	shift
	echo "== $name"
	"$@" >"$out/$name.txt"
	if [ "$update" = 1 ]; then
		cp "$out/$name.txt" "$golden/$name.txt"
	elif ! diff -u "$golden/$name.txt" "$out/$name.txt"; then
		fail=1
	fi
}

for d in examples/*/; do
	run "$(basename "$d")" "$GO" run "./$d"
done
for m in ondemand list optimal hybrid; do
	for f in ascii chrome; do
		run "schedviz-$m-$f" "$GO" run ./cmd/schedviz -mode "$m" -format "$f" -events
	done
done
if [ "$fail" != 0 ]; then
	echo "examples: output differs from $golden; run make examples-update if the change is intended" >&2
fi
exit "$fail"
