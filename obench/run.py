#!/usr/bin/env python3
"""Build and run the OBrew benchmark from the root of a checkout.

    python3 obench/run.py --workload steady-run --seed 1 --seconds 10 --trace 0

The benchmark program is built from source with dune into
_obench_build/ (release profile), then run with the same arguments.
Its output is passed through; the last line is the JSON result.

    python3 obench/run.py --exactness --workload W --seed N --seconds S

runs the workload traced twice with seed N and once with seed N+1 and
checks that the exact counts repeat for the same seed, that the other
seed changes the request order, and that every run is error-free.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_obench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "obench", "obench.exe")
WORKLOADS = ("steady-run", "specialize-mix", "tiered-serve")


def die(msg):
    print("obench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s missing: run from the root of an OBrew checkout" % need)
    # no shared dune cache: the build writes only inside the checkout
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "./obench/obench.exe"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=880)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run(args, echo=True):
    """Run the benchmark program; return its stdout lines."""
    seconds = float(args[args.index("--seconds") + 1])
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=seconds + 90)
    except subprocess.TimeoutExpired:
        die("benchmark timed out")
    if echo:
        sys.stdout.write(r.stdout)
    if r.returncode != 0:
        die("benchmark exited with code %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("no JSON result on the last line")
    return lines, result


def exact_counts(lines):
    """The 'exact ...' and 'exact-traced ...' lines as a dict."""
    counts = {}
    for line in lines:
        if line.startswith("exact"):
            counts.update(re.findall(r"(\S+)=(\S+)", line))
            m = re.search(r"order (\w+)", line)
            if m:
                counts["order"] = m.group(1)
    return counts


def exactness(workload, seed, seconds):
    base = ["--workload", workload, "--seconds", seconds, "--trace", "1"]
    runs = []
    for s in (seed, seed, seed + 1):
        lines, result = run(base + ["--seed", str(s)], echo=False)
        runs.append((exact_counts(lines), result))
        print("seed %d: %s, failed %d/%d" % (s, runs[-1][0],
              result["failed"], result["attempted"]))
    (a, _), (b, _), (c, _) = runs
    ok = True
    if a != b:
        print("FAIL: exact counts differ between two runs of seed %d" % seed)
        ok = False
    if a.get("order") == c.get("order"):
        print("FAIL: seed %d gives the same request order" % (seed + 1))
        ok = False
    if any(r["failed"] or not r["correct"] for _, r in runs):
        print("FAIL: a run reported errors")
        ok = False
    print("exactness: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    check = "--exactness" in argv
    if check:
        argv.remove("--exactness")
    opts = dict(zip(argv[0::2], argv[1::2]))
    if (len(argv) % 2 or opts.get("--workload") not in WORKLOADS
            or "--seed" not in opts or "--seconds" not in opts
            or (not check and opts.get("--trace") not in ("0", "1"))):
        die("usage: run.py [--exactness] --workload %s --seed N "
            "--seconds S --trace 0|1" % "|".join(WORKLOADS))
    build()
    if check:
        sys.exit(exactness(opts["--workload"], int(opts["--seed"]),
                           opts["--seconds"]))
    run(argv)


if __name__ == "__main__":
    main()
