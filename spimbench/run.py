#!/usr/bin/env python3
"""Build and run the StreamPIM benchmark; print its result as JSON.

Usage (from the repository root):

    python3 spimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds spimbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/spimbench, default
.bench_build/spimbench; later runs only check the build. The binary's
report lines are passed through, and the last line printed is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list.

--tiny and --max-iters N shrink a run for the smoke test.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "spimbench-result "
# The run must end within 180 s, build included.
DEADLINE_S = 170.0


def fail(msg):
    print(f"spimbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--max-iters", type=int, default=0)
    return p.parse_args()


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def clean_env():
    """The caller's environment without STREAMPIM_* settings."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("STREAMPIM_")}


def sources_hash():
    """Hash of the library's and the benchmark's sources: runs of one
    seed on the same sources must agree on every simulated statistic."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_group(cmd, deadline, **kw):
    """Run @cmd in its own process group; on timeout kill the whole
    group (compilers under cmake included) and wait for it."""
    p = subprocess.Popen(cmd, start_new_session=True, env=clean_env(),
                         **kw)
    try:
        out, _ = p.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None, None
    return p.returncode, out


def build(build_dir, deadline):
    """Configure once, then (re)build; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) are missing; nothing to build")
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        code, _ = run_group(cmd, deadline, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code is None:
            fail("build timed out")
        if code != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    args = parse_args()
    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "spimbench")
    build(build_dir, deadline)
    digest_dir = os.path.join(build_dir, "digests", sources_hash())
    for sub in (digest_dir, os.path.join(build_dir, "traces")):
        os.makedirs(sub, exist_ok=True)

    cmd = [os.path.join(build_dir, "spimbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digest-file",
           os.path.join(HERE, "digests", f"{args.workload}.txt"),
           "--digest-dir", digest_dir]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "traces",
                             f"{args.workload}-{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.max_iters:
        cmd += ["--max-iters", str(args.max_iters)]
    code, out = run_group(cmd, deadline, stdout=subprocess.PIPE, text=True)
    if code is None:
        fail("benchmark run timed out")
    if code != 0:
        fail(f"benchmark exited with code {code}")

    lines = out.splitlines()
    if not lines or not lines[-1].startswith(RESULT_PREFIX):
        fail("benchmark printed no result line")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1][len(RESULT_PREFIX):])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
