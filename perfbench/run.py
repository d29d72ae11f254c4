#!/usr/bin/env python3
"""Build and run the SwitchV benchmark for one workload.

    python3 perfbench/run.py --workload validate_pins --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds perfbench/perfbench.exe with dune,
runs it once, checks its result against the metrics BENCHMARK.json
declares, and relays its output: human-readable metric lines, then one
JSON result line {"correct", "attempted", "failed", "metrics"} as the last
line of standard output. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("validate_pins", "packet_path", "control_churn")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def revision():
    """The git commit when this directory is a git checkout, else a digest
    of the sources. Git does not look above this directory."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode:
    end_to_end for --trace 0, per_layer for --trace 1."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return None


def check_metrics(reported, declared, trace):
    """Why the reported metrics break the declaration, or None. Every
    reported metric is declared with the same unit; in an end-to-end run
    every declared metric is reported and above 0."""
    for name, m in reported.items():
        if declared.get(name) != m["unit"]:
            return f"metric {name} ({m['unit']}) is not declared in BENCHMARK.json"
    if not trace:
        for name in declared:
            if name not in reported or reported[name]["value"] <= 0:
                return f"end-to-end metric {name} was not measured"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    if declared is None:
        return 2
    # Dune's shared cache lives outside the repository; keep the build in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--rev", revision(),
    ]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        reported = result["metrics"]
        assert all(math.isfinite(m["value"]) for m in reported.values())
    except (ValueError, AssertionError, KeyError, TypeError):
        sys.stderr.write(run.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 3
    error = check_metrics(reported, declared, args.trace)
    if error:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    # A per-layer metric the workload does not report reads 0.
    result["metrics"] = {
        name: reported.get(name, {"value": 0, "unit": unit}) for name, unit in declared.items()
    }
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
