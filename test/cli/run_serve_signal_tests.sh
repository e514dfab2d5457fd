#!/bin/sh
# An idle kregret_serve must stop on SIGTERM and on SIGINT: exit 0 within
# 2 s, with its socket unlinked. Invoked by dune (see ./dune) with the built
# server as $1; runs in a sandbox directory.
set -eu

SERVE=$1
fail() { echo "serve-signal-test FAILURE: $*" >&2; exit 1; }

for sig in TERM INT; do
  sock=./idle-$sig.sock
  rm -f "$sock"
  "$SERVE" --socket "$sock" --quiet &
  pid=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ $i -le 200 ] || { kill -9 $pid; fail "no socket after 10 s"; }
    sleep 0.05
  done
  # idle: nothing has connected, the IO thread sleeps in select
  sleep 0.2
  kill -$sig $pid
  # the watchdog ends a server that outlives 2 s
  ( i=0; while [ $i -lt 40 ]; do sleep 0.05; i=$((i + 1)); done
    kill -9 $pid 2>/dev/null ) &
  watchdog=$!
  status=0
  wait $pid || status=$?
  kill $watchdog 2>/dev/null || true
  wait $watchdog 2>/dev/null || true
  [ $status -eq 0 ] || fail "SIG$sig: exit status $status (137: still running after 2 s)"
  [ ! -e "$sock" ] || fail "SIG$sig: socket left behind"
  echo "serve-signal-test: SIG$sig stopped an idle server"
done
