#!/bin/sh
# netloc.sh — count the Go lines a change adds and removes, from a base
# revision to the work tree (untracked files included), with non-test lines
# and *_test.go lines on separate lines. testdata/ and bench/ are left out.
# Renames are not detected, so code moved into a test file shows as a
# non-test removal matched by a test addition.
#
# Usage: scripts/netloc.sh BASE
set -eu
base="${1:?usage: scripts/netloc.sh BASE}"
cd "$(dirname "$0")/.."
set -- -- '*.go' ':(exclude)bench' ':(exclude,glob)**/testdata/**'
{
	git diff --no-renames --numstat "$base" "$@"
	git ls-files --others --exclude-standard "$@" | while read -r f; do
		printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' '
	{ k = ($3 ~ /_test\.go$/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
	END {
		n = split("non-test test", ks, " ")
		for (i = 1; i <= n; i++) {
			k = ks[i]
			printf "%-9s +%d -%d net %+d\n", k ":", add[k], del[k], add[k] - del[k]
		}
	}'
