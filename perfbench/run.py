#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe with dune,
then times one workload in fresh processes and fresh working
directories under .perfbench/. The last stdout line is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it
records the environment. On any failure it exits non-zero without
printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("suite", "fleet", "serve", "sweep")
# Set-up-only processes per run: setup_s is the median of these and the
# measured run's own set-up.
SETUP_SAMPLES = 8
# A measured run ends within 180 s, build and warm-up aside.
RUN_LIMIT_S = 170.0
# Host contention on a shared VM comes and goes on each CPU separately,
# for seconds at a time. A single-threaded measured process is moved to
# the next CPU every ROTATE_S, so a run cannot sit on one contended CPU
# throughout and the program's slices see every CPU. (The fleet's two
# domains use both CPUs already.)
ROTATE_S = 0.5

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
GOLDEN = os.path.join(HERE, "golden")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("the repository sources are not next to perfbench/")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    # The shared dune cache lives outside the checkout; the benchmark
    # reads and writes only inside it.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=800, env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed:\n" + r.stderr[-4000:])


def rotate(pid, stop):
    """Move process pid to the next CPU every ROTATE_S until stop is set."""
    cpus = sorted(os.sched_getaffinity(0))
    i = 0
    while len(cpus) > 1 and not stop.wait(ROTATE_S):
        i += 1
        try:
            os.sched_setaffinity(pid, {cpus[i % len(cpus)]})
        except OSError:
            return


def spawn(args, cwd, limit, rotating=False):
    """Run the program in cwd, moving it between CPUs if rotating.
    Returns its stdout lines but "ready" and the seconds from process
    start to "ready"."""
    start = time.monotonic()
    p = subprocess.Popen([EXE] + args, cwd=cwd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit, p.kill)
    timer.start()
    stop = threading.Event()
    mover = threading.Thread(target=rotate, args=(p.pid, stop)) if rotating else None
    if mover:
        mover.start()
    def halt_mover():
        stop.set()
        if mover:
            mover.join()

    ready, lines = None, []
    try:
        for line in p.stdout:
            line = line.rstrip("\n")
            if ready is None and line == "ready":
                ready = time.monotonic() - start
            else:
                lines.append(line)
        # Stop moving the process before it is reaped, so its pid cannot
        # have been reused.
        halt_mover()
        p.wait()
    finally:
        halt_mover()
        timer.cancel()
        p.stdout.close()
        if p.returncode is None:
            p.kill()
            p.wait()
    if p.returncode != 0 or ready is None:
        die("perfbench.exe %s exited with status %s" % (" ".join(args), p.returncode))
    return lines, ready


def code_key():
    """A digest of the library sources. The design cache's keys cover the
    spec and the training records, not the code that synthesizes, so the
    warm cache is kept per version of the code."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in ("dune-project", "dune")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "lib")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def warm_cache():
    """Synthesize the default designs once per version of the library
    code, privately. Returns the warm directory."""
    key = code_key()
    warm = os.path.join(STATE, "warm-" + key)
    if os.path.isdir(os.path.join(warm, ".yukta_cache")):
        return warm
    tmp = os.path.join(STATE, "warm-%s.tmp" % key)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    r = subprocess.run([EXE, "warm"], cwd=tmp, stdout=subprocess.DEVNULL, timeout=800)
    if r.returncode != 0 or not os.path.isdir(os.path.join(tmp, ".yukta_cache")):
        die("warming the design cache failed")
    os.rename(tmp, warm)
    return warm


def fresh_dir(warm, workload, tag):
    """A new working directory holding a copy of the private warm cache
    (the sweep empties it again before each round)."""
    d = os.path.join(STATE, "runs", "%s-%s" % (workload, tag))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copytree(os.path.join(warm, ".yukta_cache"), os.path.join(d, ".yukta_cache"))
    return d


def main():
    ap = argparse.ArgumentParser(description="The repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not a.seconds > 0:
        die("--seconds must be positive")
    build()
    shutil.rmtree(os.path.join(STATE, "runs"), ignore_errors=True)
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    warm = warm_cache()
    t0 = time.monotonic()
    common = ["--seed", str(a.seed), "--golden", GOLDEN]
    setups = []
    for i in range(SETUP_SAMPLES):
        d = fresh_dir(warm, a.workload, "setup%d" % i)
        _, ready = spawn([a.workload, "--phase", "setup"] + common, d, 60.0)
        shutil.rmtree(d)
        setups.append(ready)
    d = fresh_dir(warm, a.workload, "run")
    trace_out = os.path.join(STATE, "traces", "%s-seed%d.jsonl" % (a.workload, a.seed))
    lines, ready = spawn(
        [a.workload, "--phase", "run", "--seconds", repr(a.seconds),
         "--trace", str(a.trace), "--trace-out", trace_out] + common,
        d, max(10.0, RUN_LIMIT_S - (time.monotonic() - t0)), rotating=a.workload != "fleet")
    shutil.rmtree(d)
    setups.append(ready)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("the program printed no result line")
    for e in result["errors"]:
        print("perfbench: " + e, file=sys.stderr)
    metrics = result["metrics"]
    if a.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    env = dict(result["env"], workload=a.workload, seed=a.seed, seconds=a.seconds,
               trace=a.trace, nproc=len(os.sched_getaffinity(0)),
               setup_samples_s=setups)
    print("# env " + json.dumps(env, sort_keys=True))
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
