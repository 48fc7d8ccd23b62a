#!/usr/bin/env python3
"""Campaign benchmark for motsim: build, run one workload, check, report.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campaign_bench/run.py --workload NAME --smoke --trace 0|1

Run it from the root of a motsim checkout. It builds campaign_bench.cpp and
the motsim libraries from src/ as a Release build under .bench_build/, runs
the campaign_bench program, compares the exact counters with the ones pinned
in pins.json for that (workload, seed), and prints one provenance line
followed by the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones. A
failed output check prints "correct": false with no metrics and exits 1. At
a seed with no pinned counters only the program's own checks apply, and the
provenance line says "pinned": false.
--smoke runs every workload's code path on the small s298 stand-in in
seconds. Set MOTSIM_UPDATE_PINS=1 to record the counters of this run as the
pinned ones instead of checking them.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
PINS = os.path.join(BENCH_DIR, "pins.json")
# Lanes of every workload: threads of the pre-pass and the MOT batch, or
# forked workers on fleet_am2910. Fixed, never "all cores".
LANES = 4
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"campaign_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the Release program; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no motsim sources under {ROOT}/src; run from a motsim checkout")
    jobs = str(min(host_cpus(), 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_identity():
    """Git commit with a -dirty suffix, or a hash of the sources without git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
        return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "nogit-sources-" + digest.hexdigest()[:16]


def pin_key(workload, seed, smoke):
    return f"{workload}@{seed}" + ("/smoke" if smoke else "")


def check_pins(pins_path, key, counters):
    """Returns failures against the counters pinned for key, or None if it
    has none."""
    with open(pins_path) as f:
        pins = json.load(f)
    if os.environ.get("MOTSIM_UPDATE_PINS") == "1":
        pins[key] = counters
        with open(pins_path, "w") as f:
            json.dump(pins, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"campaign_bench: pinned {key}", file=sys.stderr)
        return []
    want = pins.get(key)
    if want is None:
        return None
    if len(want) != len(counters):
        return [f"{len(counters)} sequences, pinned {len(want)}"]
    return [f"sequence {j}: {name} = {got.get(name)!r}, pinned {value!r}"
            for j, (pinned, got) in enumerate(zip(want, counters))
            for name, value in sorted(pinned.items())
            if got.get(name) != value]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds < 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600)")

    cpus = host_cpus()
    if not args.smoke and LANES > cpus:
        fail(f"refusing to time {LANES} lanes on a host with {cpus} CPUs")
    build()

    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--lanes", str(LANES), "--scratch", scratch]
        if args.smoke:
            cmd.append("--smoke")
        # Own process group, so a stuck run takes its fleet workers with it.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"campaign_bench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"campaign_bench exited with code {proc.returncode}")
    out = json.loads(lines[-1])

    if out["build_type"] != "Release" or not out["ndebug"]:
        fail(f"refusing to report a {out['build_type']!r} build "
             "(Release with NDEBUG required)", 3)
    key = pin_key(args.workload, args.seed, args.smoke)
    pin_failures = check_pins(PINS, key, out["counters"])
    if pin_failures is None:
        print(f"campaign_bench: no counters pinned for {key}; only the "
              "program's own checks apply", file=sys.stderr)
    provenance = {
        "workload": out["workload"], "circuit": out["circuit"],
        "seed": out["seed"], "smoke": args.smoke, "nproc": cpus,
        "lanes": out["lanes"], "commit": source_identity(),
        "build_type": out["build_type"], "cxx_flags": out["cxx_flags"].strip(),
        "compiler": out["compiler"], "pinned": pin_failures is not None,
        "counters": out["counters"],
    }
    print(json.dumps({"provenance": provenance}))

    failures = out["checks_failed"] + (pin_failures or [])
    for msg in failures:
        print(f"campaign_bench: check failed: {msg}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"] if correct else {},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
