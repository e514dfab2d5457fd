#!/bin/sh
# A setting kregret_serve refuses is bad usage: the server exits 124 with
# the refusal on stderr, before it binds anything, so no socket is left
# behind. Invoked by dune (see ./dune) with the built server as $1; runs in
# a sandbox directory.
set -eu

SERVE=$1
fail() { echo "serve-usage-test FAILURE: $*" >&2; exit 1; }

refused() {
  want=$1
  shift
  sock=./usage.sock
  rm -f "$sock"
  "$SERVE" --socket "$sock" --quiet "$@" 2>usage.err &
  pid=$!
  # the watchdog ends a server that did start after all
  ( i=0; while [ $i -lt 100 ]; do sleep 0.05; i=$((i + 1)); done
    kill -9 $pid 2>/dev/null ) &
  watchdog=$!
  status=0
  wait $pid || status=$?
  kill $watchdog 2>/dev/null || true
  wait $watchdog 2>/dev/null || true
  [ $status -eq 124 ] || fail "$*: exit status $status, expected 124"
  grep -q "$want" usage.err || fail "$*: no '$want' on stderr: $(cat usage.err)"
  [ ! -e "$sock" ] || fail "$*: socket left behind"
  echo "serve-usage-test: $* exits 124 ($want)"
}

refused "max_length < 1" --max-k 0
refused "workers < 1" --workers 0
# a negative hint would have clients retry a building dataset back to back
refused "retry_after must be finite and >= 0" --retry-after=-1
refused "retry_after must be finite and >= 0" --retry-after=nan

# the client refuses a bad --timeout the same way, before it connects
status=0
"$SERVE" --socket ./absent.sock --client --timeout=-1 ping 2>usage.err \
  || status=$?
[ $status -eq 124 ] \
  || fail "--client --timeout=-1: exit status $status, expected 124"
grep -q "timeout must be finite and >= 0" usage.err \
  || fail "--client --timeout=-1: $(cat usage.err)"
echo "serve-usage-test: --client --timeout=-1 exits 124"
