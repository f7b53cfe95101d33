#!/usr/bin/env python3
"""Build and run the repository benchmark (see scbench/README.md).

    python3 scbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 scbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
scnn libraries and the scbench binary from source into .bench_build/ (or
$CARGO_TARGET_DIR); later calls only re-check the build. Artifacts (the
result with its fingerprint, and the chrome trace of a traced run) go to
.bench_out/. The last line of stdout is the run's JSON result; build output
and progress go to stderr. Exits non-zero, printing no result, when the
build, the run, or the result's shape fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-cifar", "serve-digits", "tenants-swap")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured cache behind for the next call.
            shutil.rmtree(bdir, ignore_errors=True)
            raise SystemExit("run.py: configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("run.py: building the benchmark failed")
    return os.path.join(bdir, target)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "scbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def check_result(result, trace):
    """The result must have exactly the contract's keys and exactly the
    metrics (names and units) BENCHMARK.json lists for this kind of run."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"run.py: result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise SystemExit("run.py: attempted must be a whole number >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        tests = build("scbench_tests")
        raise SystemExit(subprocess.run([tests], cwd=build_dir()).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("scbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: the run did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        raise SystemExit(f"run.py: scbench exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("run.py: scbench printed no result")
    result = json.loads(lines[-1])
    check_result(result, args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
