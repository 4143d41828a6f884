#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
c4cam library and the perfbench program in Release mode under
.bench_build/perfbench (later runs only re-check the build). The
program prints human-readable report lines; the last line of standard
output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics". With --trace 1 the span document goes to
.bench_build/traces/<workload>.json and is validated with
c4cam-trace-check; a rejected document marks the run incorrect.

Workloads, metrics and the layer-to-metric mapping are described in
perfbench/METRICS.md.
"""

import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the two targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("c4cam sources not found next to perfbench/ "
             "(run from a full checkout)", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "c4cam-trace-check", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def source_id():
    """Git sha when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources:" + digest.hexdigest()[:12]


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) - {"--workload", "--seed", "--seconds",
                                     "--trace"} or "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S "
             "--trace 0|1", 2)
    build()
    workload = args["--workload"]
    traced = args.get("--trace", "0") == "1"
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, workload + ".json")
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + argv + [
        "--trace-out", trace_path, "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail("perfbench exited with code %d" % run.returncode,
             run.returncode or 1)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if traced:
        check = subprocess.run(
            [os.path.join(BUILD_DIR, "c4cam", "tools", "c4cam-trace-check"),
             trace_path], cwd=ROOT, capture_output=True, text=True)
        print("  " + (check.stdout + check.stderr).strip())
        if check.returncode != 0:
            result["correct"] = False
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
