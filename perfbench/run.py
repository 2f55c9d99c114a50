#!/usr/bin/env python3
"""Build and run the FASE-runtime benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds perfbench/ (which
pulls in the repository's libraries from ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later calls only re-check the build.
Persistent regions are created under the build directory, so the run reads
and writes only inside the checkout. Workloads and metrics are described in
perfbench/README.md and BENCHMARK.json.

The last line of stdout is the result object; the line before it stamps the
effective configuration and the host. Exit status is 0 only when every
correctness check passed.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "fasebench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "fasebench")


def validate(result, expected):
    """Return a reason the result object breaks the contract, or None."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a bool"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a count"
    if result["attempted"] < 1:
        return "nothing attempted"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names (missing {missing}, extra {extra})"
    for name, unit in expected.items():
        m = metrics[name]
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is not a finite number"
        if m.get("unit") != unit:
            return f"{name} unit {m.get('unit')!r}, want {unit!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    layer = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    # Persistent regions live inside the checkout; the program's own
    # NVC_* knobs are cleared so the benchmark's settings are the only ones.
    pmem_dir = os.path.join(build_dir, "pmem")
    shutil.rmtree(pmem_dir, ignore_errors=True)
    os.makedirs(pmem_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVC_")}
    env["NVC_PMEM_DIR"] = pmem_dir
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, check=False,
                              text=True)
        stdout, returncode = done.stdout, done.returncode
    except subprocess.TimeoutExpired as err:
        stdout, returncode = err.stdout or "", None
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        shutil.rmtree(pmem_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    result, reason = None, "no result line"
    if lines:
        try:
            result = json.loads(lines[-1])
            reason = validate(result, expected)
        except ValueError:
            reason = "result line is not JSON"
    if reason is not None:
        print(f"perfbench: bad result ({reason}); exit status {returncode}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
