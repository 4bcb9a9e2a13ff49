#!/usr/bin/env python3
"""Regenerate the committed simulated-statistics digests.

    python3 spimbench/update_digests.py [--workload NAME ...]

For every workload (or the ones named), builds the benchmark as run.py
does, runs one iteration per seed and writes
spimbench/digests/<workload>.txt: one line "<format> <size> <seed>
<digest>" per seed, for the full-size seeds 0-32 and 90210 and the
smoke test's tiny seed 7. run.py checks every run of a listed seed
against its line, so a change that is meant to alter the model
regenerates these files and shows the new digests in its diff.
"""

import argparse
import os
import re
import subprocess
import sys
import time

import run

FULL_SEEDS = list(range(0, 33)) + [90210]
TINY_SEEDS = [7]
DIGEST = re.compile(r"^digest: (.*)$")
FORMAT = re.compile(r"constexpr unsigned kDigestFormat = (\d+);")


def digest_format():
    with open(os.path.join(run.HERE, "src", "main.cc")) as f:
        return int(FORMAT.search(f.read()).group(1))


def digest_of(binary, workload, seed, tiny):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", "0", "--max-iters", "1"]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, env=run.clean_env(), capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        m = DIGEST.match(line)
        if m:
            return m.group(1).rstrip()
    sys.exit(f"update_digests: {workload} seed {seed} printed no digest")


def main():
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(run.ROOT, target, "spimbench")
    run.build(build_dir, time.monotonic() + 900)
    binary = os.path.join(build_dir, "spimbench")
    fmt = digest_format()
    out_dir = os.path.join(run.HERE, "digests")
    os.makedirs(out_dir, exist_ok=True)
    for w in args.workload or names:
        lines = [f"# Simulated-statistics digests of spimbench workload "
                 f"{w}, written by update_digests.py.",
                 "# <format> <size> <seed> <digest>"]
        for size, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
            for seed in seeds:
                d = digest_of(binary, w, seed, size == "tiny")
                lines.append(f"{fmt} {size} {seed} {d}")
        with open(os.path.join(out_dir, f"{w}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        print(f"update_digests: {w}: {len(lines) - 2} digests",
              flush=True)


if __name__ == "__main__":
    main()
