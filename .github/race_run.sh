#!/bin/sh
# usage: race_run.sh PATTERN PKG...
# Runs go test -race -count=2 -run PATTERN over the packages, after checking
# with go test -list that PATTERN still names at least one test in every one
# of them, so a rename or deletion cannot turn a CI step, or one package of
# it, into a silent no-op.
set -eu
pattern="$1"
shift
for pkg in "$@"; do
	if ! go test -list "$pattern" "$pkg" | grep -q '^Test'; then
		echo "no test matches -run '$pattern' in $pkg" >&2
		exit 1
	fi
done
exec go test -race -count=2 -run "$pattern" "$@"
