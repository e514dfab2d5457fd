#!/bin/sh
# A kregret_serve out of file descriptors must wait, not spin. Started
# under `ulimit -n 24` with 30 connections open, it accepts what it can
# and leaves the rest in the backlog; over the next 2 s it may use well
# under 10% of a core (utime + stime from /proc/<pid>/stat), and a queued
# connection must get its hello once the others hang up. Invoked by dune
# (see ./dune) with the built server as $1; runs in a sandbox directory.
# Needs python3 and Linux /proc, and says so when it skips.
set -eu

SERVE=$1
command -v python3 >/dev/null 2>&1 || {
  echo "serve-emfile-test: skipped (no python3)"; exit 0; }
[ -r /proc/self/stat ] || {
  echo "serve-emfile-test: skipped (no /proc)"; exit 0; }

sock=./emfile.sock
rm -f "$sock"
( ulimit -n 24; exec "$SERVE" --socket "$sock" --quiet ) &
pid=$!
trap 'kill -9 $pid 2>/dev/null || true' EXIT
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ $i -le 200 ] || { echo "serve-emfile-test FAILURE: no socket after 10 s" >&2; exit 1; }
  sleep 0.05
done

python3 - "$sock" "$pid" <<'PY'
import os, socket, sys, time

path, pid = sys.argv[1], int(sys.argv[2])

def cpu_seconds():
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime, fields 14 and 15 of stat(5)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

def fail(message):
    sys.exit("serve-emfile-test FAILURE: " + message)

conns = []
for _ in range(30):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(path)
    conns.append(s)
time.sleep(0.5)  # the server accepts what its descriptors allow
cpu0, wall0 = cpu_seconds(), time.time()
time.sleep(2)
cpu, wall = cpu_seconds() - cpu0, time.time() - wall0
print(f"serve-emfile-test: {cpu:.2f} s of CPU in {wall:.2f} s at the descriptor limit")
if cpu >= 0.1 * wall:
    fail(f"the server used {cpu / wall:.0%} of a core while out of descriptors")
# the last connection waits in the backlog: it gets its hello once the
# others hang up
last = conns.pop()
for s in conns:
    s.close()
hello = b""
try:
    while b"\n" not in hello:
        chunk = last.recv(4096)
        if not chunk:
            break
        hello += chunk
except socket.timeout:
    pass
if b'"hello"' not in hello:
    fail(f"no hello for a queued connection once the others hung up: {hello!r}")
print("serve-emfile-test: a queued connection got its hello")
PY

kill -TERM $pid
wait $pid || fail_status=$?
[ "${fail_status:-0}" -eq 0 ] || { echo "serve-emfile-test FAILURE: exit status $fail_status after SIGTERM" >&2; exit 1; }
trap - EXIT
