#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload pretrain-apollo --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the
libraries under src/) into .bench_build/, or into $CARGO_TARGET_DIR when it
is set, then runs apollo-perfbench for one workload. Build output goes to
stderr; the workload's report goes to stdout, whose last line is the JSON
result. Exits nonzero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "apollo-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    # Keep compiler and runtime temporaries inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    # Own process group, so a timeout also stops the data-parallel ranks.
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace,
         "--workdir", workdir],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"perfbench: apollo-perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    report, result, problem = complete_result(out, args.trace == "1")
    if problem:
        sys.stderr.write(out)
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    print(json.dumps(result))
    return 0


def complete_result(out, traced):
    """Checks the result's metrics against BENCHMARK.json (end_to_end when
    untraced, per_layer when traced) and returns (report lines, result,
    problem). An untraced run must report every end-to-end metric; a traced
    run reports the layers its workload runs, and the layers it bypasses are
    added as 0. Units must match; unknown names are an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if traced else "end_to_end"]
    lines = out.splitlines(keepends=True)
    try:
        result = json.loads(lines[-1])
        got = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None, None, "no JSON result on the last line"
    units = {m["name"]: m["unit"] for m in want}
    for name, v in got.items():
        if units.get(name) != v.get("unit"):
            return None, None, f"metric {name} ({v.get('unit')}) is not in BENCHMARK.json"
    if not traced and len(got) != len(want):
        missing = sorted(set(units) - set(got))
        return None, None, f"end-to-end metrics missing: {missing}"
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in want}
    return "".join(lines[:-1]), result, None


if __name__ == "__main__":
    sys.exit(main())
