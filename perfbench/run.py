#!/usr/bin/env python3
"""Builds and runs the layered sddict benchmark (README.md beside this file).

    python3 perfbench/run.py --workload fleet_clean --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one after another
    python3 perfbench/run.py --self-test      # the benchmark helpers' own tests

Run from the repository root. The benchmark package is compiled from the
repository's sources into .bench_build/perfbench on first use; later runs
only re-check that build. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; build output goes to
standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_clean", "tcp_noisy", "build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"sddict sources not found under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(min(4, nproc())),
           "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def run_one(args, workload, capture):
    """Runs one workload; returns (exit code, its stdout when captured)."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BUILD / "layerbench"), f"--workload={workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--workdir={work}",
           f"--revision={revision()}"]
    if args.trace:
        cmd.append(f"--spans={BUILD}/spans-{workload}-{args.seed}.csv")
    try:
        out = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out.returncode, out.stdout


def run_all(args):
    """Every workload in turn; the last line merges their results, each
    metric prefixed with its workload's name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        rc, out = run_one(args, workload, capture=True)
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            fail(f"{workload} printed no result (exit code {rc})")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        worst = max(worst, rc)
    print(json.dumps(merged), flush=True)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        build(["harness_test"])
        sys.exit(subprocess.run([str(BUILD / "harness_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    build(["layerbench"])
    if args.workload == "all":
        sys.exit(run_all(args))
    sys.exit(run_one(args, args.workload, capture=False)[0])


if __name__ == "__main__":
    main()
