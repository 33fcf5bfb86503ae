#!/usr/bin/env python3
"""Builds and runs the PPGNN benchmark from a source checkout.

    python3 perfbench/run.py --workload paper_group --seed 1 --seconds 40 --trace 0

Workloads: paper_group and cluster_tcp, which BENCHMARK.json lists, and
opt_nas and cluster_inproc, which run by hand (see perfbench/README.md). The library and the benchmark binary are built
from ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) as a Release build; build output goes to stderr.
Standard output gets one line with the host fingerprint, then the
binary's result line, which is always last.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "ppgnn_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit when there is one, and a digest of the sources the
    benchmark builds either way."""
    commit = "none"
    try:
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) when
    unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def host_fingerprint(out, args, steal_frac):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            if match:
                cpu = match.group(1).strip()
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    commit, digest = source_identity()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_digest": digest,
        "workload": args.get("--workload"),
        "seed": args.get("--seed"),
        # Share of CPU time the hypervisor gave to other guests during the
        # run: a run with a high share measured a contended host.
        "cpu_steal_frac": steal_frac,
    }


def main(argv):
    if len(argv) % 2 != 0:
        fail("arguments come in --flag value pairs")
    args = dict(zip(argv[0::2], argv[1::2]))
    out = build_dir()
    build(out)
    binary = os.path.join(out, "ppgnn_perfbench")
    steal0, total0 = cpu_ticks()
    try:
        run = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    steal1, total1 = cpu_ticks()
    steal_frac = (round((steal1 - steal0) / (total1 - total0), 4)
                  if total1 > total0 else 0.0)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"the benchmark binary exited with code {run.returncode}")
    print(json.dumps({"host": host_fingerprint(out, args, steal_frac)}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
