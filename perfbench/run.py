#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds the `tpu-serve` daemon
from the repository's workspace and the benchmark package in this
directory (both in release mode, into CARGO_TARGET_DIR, by default
`.bench_build`), runs the workload in a scratch directory under
`.bench_work`, and passes the benchmark's output through: a facts line,
then one JSON result line. The exit code is the benchmark's.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-hot", "serve-cold", "autotune", "train-stream"]
# A run measures for --seconds plus five set-ups; this bounds a stuck one.
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    """Build from the repository root, so both builds take the repository's
    .cargo/config.toml; cargo's own output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline"] + args
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def source_digest():
    """A digest of the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "tree-" + source_digest()


def rustc_version():
    out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    for needed in ["Cargo.toml", "crates"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found at the repository root")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cargo_build(["-p", "tpu-serve", "--bin", "tpu-serve"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    work = os.path.join(
        ROOT, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target, "release", "tpu-serve"),
        "--dir", work,
        "--commit", commit(),
        "--rustc", rustc_version(),
    ]
    # A session of its own, so a stuck run's daemons are stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
