#!/usr/bin/env python3
"""Build and run the aspipe benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is the OCaml program perfbench/perfbench.ml. This script
builds it (and the library) from source with dune's release profile into
perfbench/_build, then runs it; the program's last line of standard output
is the JSON result. Build output goes to standard error.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(os.getcwd(), "perfbench", "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of an aspipe checkout")
    command = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "--cache=disabled", "-j", "2",
        "./perfbench/perfbench.exe",
    ]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run(args, capture=False):
    try:
        return subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)


def self_test():
    """The program's catalogue must match BENCHMARK.json (names, units,
    directions, workloads); then every workload runs at a tiny size."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    catalogue = json.loads(run(["--catalogue"], capture=True).stdout)
    problems = []
    if [w["name"] for w in declared["workloads"]] != catalogue["workloads"]:
        problems.append("workloads differ from BENCHMARK.json")
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        have = {m["name"]: (m["unit"], m["better"]) for m in catalogue[key]}
        for name in sorted(set(want) | set(have)):
            if want.get(name) != have.get(name):
                problems.append("%s %s: BENCHMARK.json %s, program %s"
                                % (key, name, want.get(name), have.get(name)))
    for problem in problems:
        print("# self-test FAILED: " + problem)
    done = run(["--self-test"])
    return 0 if not problems and done.returncode == 0 else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(run(args).returncode)


if __name__ == "__main__":
    main()
