#!/usr/bin/env python3
"""Build and run one nwbench workload from the root of a source checkout.

    python3 nwbench/run.py --workload eco-logic10k --seed 1 --seconds 30 --trace 0

The C++ benchmark program (nwbench/src) is built with CMake into $CARGO_TARGET_DIR/nwbench
(default .bench_build/nwbench) from the library sources under src/. The
program's standard output is passed through, except its last line, which is
replaced by one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the program's end-to-end metrics,
whose names must be those of end_to_end in BENCHMARK.json. With --trace 1 the
program reports the median of every layer sample it took; the metrics are the
per_layer names of BENCHMARK.json with their units, 0 for a layer the
workload never calls. The exit code is 0 only when the build worked, every
correctness check held and the metric names match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("nwbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "noise", "analyzer.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "nwbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "nwbench")
    build(build_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail("unknown workload '%s' (%s)" % (args.workload, ", ".join(sorted(names))))

    # The work directory holds the eco daemon's unix socket, whose path must
    # stay short (108 bytes), so it is passed relative to the checkout root.
    workdir = os.path.join(os.path.relpath(build_dir, ROOT), "w%d" % os.getpid())
    cmd = [os.path.join(build_dir, "nwbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "trace-%s.json" % args.workload)]
    log_path = os.path.join(build_dir, "stderr-%s.log" % args.workload)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit %d); stderr in %s" % (proc.returncode, log_path))
    if args.trace:
        layers = result.pop("layers", {})
        result["metrics"] = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                             for m in spec["per_layer"]}
    else:
        expected = sorted(m["name"] for m in spec["end_to_end"])
        if sorted(result.get("metrics", {})) != expected:
            fail("metric names %s do not match BENCHMARK.json %s"
                 % (sorted(result.get("metrics", {})), expected))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        fail("correctness check failed (exit %d)" % proc.returncode)


if __name__ == "__main__":
    main()
