#!/bin/sh
# End-to-end exercises of the kregret CLI. Invoked by dune (see ./dune) with
# the built executable as $1; runs in a sandbox directory, so file litter is
# confined. Any failed assertion aborts with a non-zero exit.
set -eu

KREGRET=$1
say() { echo "cli-test: $*"; }
fail() { echo "cli-test FAILURE: $*" >&2; exit 1; }

expect() { # expect <substring> <file>
  grep -q "$1" "$2" || fail "expected '$1' in $2: $(cat "$2")"
}

# --- gen + stats ------------------------------------------------------------
"$KREGRET" gen --dist nba -n 800 --seed 7 -o data.csv > out.txt
expect "wrote nba" out.txt
test -f data.csv || fail "gen did not write data.csv"

"$KREGRET" stats data.csv --summary > out.txt
expect "mean pairwise correlation" out.txt
expect "|Dsky|=" out.txt
expect "|Dhappy|=" out.txt

# --- query on a file vs the same synthetic spec ------------------------------
"$KREGRET" query data.csv -k 6 -a geogreedy -c happy > geo.txt
expect "maximum regret ratio" geo.txt
"$KREGRET" query data.csv -k 6 -a greedy -c happy > lp.txt
geo_mrr=$(sed -n 's/^maximum regret ratio = //p' geo.txt)
lp_mrr=$(sed -n 's/^maximum regret ratio = //p' lp.txt)
[ "$geo_mrr" = "$lp_mrr" ] || fail "geogreedy ($geo_mrr) != greedy ($lp_mrr)"

# hybrid mode must agree as well
"$KREGRET" query data.csv -k 6 -a geogreedy -c happy --vertex-cap 1 > hybrid.txt
hybrid_mrr=$(sed -n 's/^maximum regret ratio = //p' hybrid.txt)
[ "$geo_mrr" = "$hybrid_mrr" ] || fail "hybrid ($hybrid_mrr) != pure ($geo_mrr)"

# --- sweep CSV ----------------------------------------------------------------
"$KREGRET" sweep data.csv --ks 4,6 -o sweep.csv > /dev/null
expect "k,mrr,query_seconds" sweep.csv
n_rows=$(grep -c '^[0-9]' sweep.csv)
[ "$n_rows" = "2" ] || fail "sweep should have 2 data rows, got $n_rows"

# --- materialize + query-list round trip --------------------------------------
"$KREGRET" materialize data.csv -o stored.list > out.txt
expect "materialized" out.txt
"$KREGRET" query-list stored.list --data data.csv -k 6 > out.txt
expect "StoredList query k=6" out.txt
list_mrr=$(sed -n 's/.*mrr=\([0-9.]*\).*/\1/p' out.txt)
[ "$list_mrr" = "$geo_mrr" ] || fail "stored list mrr ($list_mrr) != geogreedy ($geo_mrr)"

# a mismatched dataset must be rejected
"$KREGRET" gen --dist nba -n 800 --seed 8 -o other.csv > /dev/null
if "$KREGRET" query-list stored.list --data other.csv -k 6 > out.txt 2>&1; then
  fail "query-list accepted a mismatched dataset"
fi

# --- validate ------------------------------------------------------------------
"$KREGRET" validate data.csv -k 6 > out.txt
expect "consistency: OK" out.txt

# --- error handling --------------------------------------------------------------
if "$KREGRET" query --dist no_such_distribution -n 10 -k 2 > out.txt 2>&1; then
  fail "unknown distribution accepted"
fi

# a non-finite field is a malformed row: exit 1, not a regret ratio
printf '0.5,1\n0.2,0.3\n0.7,nan\n1,0\n' > nan.csv
set +e
"$KREGRET" query nan.csv -k 2 > out.txt 2>&1
rc=$?
set -e
[ "$rc" = "1" ] || fail "a nan field should exit 1, got $rc"
expect 'bad field "nan" (line 3)' out.txt

# --- --jobs validation -----------------------------------------------------------
# a bad width is a *usage* error caught by the argument parser (exit 124),
# not a mid-run failure (exit 1)
set +e
"$KREGRET" query data.csv -k 4 --jobs 0 > out.txt 2>&1
rc=$?
set -e
[ "$rc" = "124" ] || fail "--jobs 0 should exit 124 (usage error), got $rc"
expect "JOBS must be >= 1" out.txt

set +e
"$KREGRET" query data.csv -k 4 --jobs two > out.txt 2>&1
rc=$?
set -e
[ "$rc" = "124" ] || fail "--jobs two should exit 124 (usage error), got $rc"
expect "JOBS must be an integer" out.txt

# a valid width runs, and matches the sequential answer
"$KREGRET" query data.csv -k 6 -a geogreedy -c happy --jobs 2 > jobs2.txt
jobs2_mrr=$(sed -n 's/^maximum regret ratio = //p' jobs2.txt)
[ "$jobs2_mrr" = "$geo_mrr" ] || fail "--jobs 2 mrr ($jobs2_mrr) != default ($geo_mrr)"

# an invalid KREGRET_JOBS falls back to the default width with a warning,
# instead of being silently ignored
KREGRET_JOBS=abc "$KREGRET" query data.csv -k 6 -a geogreedy -c happy > env.txt 2> env.err
expect "ignoring invalid KREGRET_JOBS" env.err
env_mrr=$(sed -n 's/^maximum regret ratio = //p' env.txt)
[ "$env_mrr" = "$geo_mrr" ] || fail "KREGRET_JOBS=abc mrr ($env_mrr) != default ($geo_mrr)"

# a valid KREGRET_JOBS is honored silently
KREGRET_JOBS=2 "$KREGRET" query data.csv -k 6 -a geogreedy -c happy > env.txt 2> env.err
test -s env.err && fail "KREGRET_JOBS=2 should not warn: $(cat env.err)"
env_mrr=$(sed -n 's/^maximum regret ratio = //p' env.txt)
[ "$env_mrr" = "$geo_mrr" ] || fail "KREGRET_JOBS=2 mrr ($env_mrr) != default ($geo_mrr)"

# --- observability ---------------------------------------------------------------
"$KREGRET" query data.csv -k 6 -a geogreedy -c happy --metrics metrics.json --stats > out.txt 2> stats.err
test -f metrics.json || fail "--metrics did not write metrics.json"
expect "kregret-obs/v1" metrics.json
expect "skyline.points_scanned" metrics.json
expect "geo_greedy.runs" metrics.json
expect "counters" stats.err
# identical run without the flags must not litter
rm -f metrics.json
"$KREGRET" query data.csv -k 6 -a geogreedy -c happy > plain.txt 2>&1
query_line=$(sed -n 's/^maximum regret ratio.*/&/p' plain.txt)
obs_line=$(sed -n 's/^maximum regret ratio.*/&/p' out.txt)
[ "$query_line" = "$obs_line" ] || fail "observability changed the answer: '$obs_line' vs '$query_line'"

say "all CLI checks passed"
