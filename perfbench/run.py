#!/usr/bin/env python3
"""The repository's benchmark: build kregret_serve and the load driver from
source, then run one workload against a separate server process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

The last line of standard output is the run's result: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json, or the per-layer ones with `--trace 1`). Full records go to
`.perfbench_work/results.jsonl` (and `--out FILE`); `--compare` reads two
such files and prints, per (metric, workload), the change of the median and
a verdict against the bounds in BENCHMARK.json. See perfbench/kbench.ml for
the workloads and what each metric measures.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

SERVER = "bin/kregret_serve_cli.exe"
DRIVER = "perfbench/kbench.exe"
WORK = ".perfbench_work"
RUN_TIMEOUT = 170  # seconds, for one run after the build


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin/kregret_serve_cli.ml", "perfbench/dune"):
        if not os.path.exists(need):
            die(f"{need} is missing: run from the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + SERVER, "./" + DRIVER],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("build failed", 1)
    return os.path.join("_build", "default", SERVER), os.path.join("_build", "default", DRIVER)


def run(args):
    server, driver = build()
    cmd = [driver, "--server", server, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", WORK]
    if args.out:
        cmd += ["--out", args.out]
    os.makedirs(WORK, exist_ok=True)
    # own process group, so a timeout takes the server down with the driver
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT} s", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if not lines:
        die("the driver printed no result", 1)
    print(lines[-1])
    sys.exit(proc.returncode)


# ---- compare mode ----------------------------------------------------------

def records(path):
    with open(path) as f:
        text = f.read().strip()
    if text.startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def medians(recs):
    """(workload, metric) -> list of per-run values, untraced runs only."""
    out = {}
    for r in recs:
        if r.get("trace", 0) != 0:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread(values):
    if len(values) < 3:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def compare(old_path, new_path):
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    old, new = medians(records(old_path)), medians(records(new_path))
    print(f"{'workload':<12} {'metric':<16} {'old':>12} {'new':>12} {'delta':>9}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        if name not in spec:
            continue
        bound, lower = spec[name]["bound"], spec[name]["better"] == "lower"
        a, b = statistics.median(old[key]), statistics.median(new[key])
        delta = (b - a) / a if a else 0.0
        worse = delta if lower else -delta
        spreads = [s for s in (spread(old[key]), spread(new[key])) if s is not None]
        if spreads and max(spreads) > bound:
            verdict = "unresolved (spread %.1f%% > bound)" % (100 * max(spreads))
        elif worse > bound:
            verdict = "worse"
        elif worse < -bound:
            verdict = "improved"
        else:
            verdict = "within bound"
        if not spreads:
            verdict += " (fewer than 3 runs a side)"
        print(f"{workload:<12} {name:<16} {a:>12.6g} {b:>12.6g} {100 * delta:>8.1f}%  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["hot-read", "write-mix", "cold-build"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        p.error("give --workload or --compare")


if __name__ == "__main__":
    main()
