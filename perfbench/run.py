#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

Usage, from the root of a checkout:

    python3 perfbench/run.py --serve-rate R --default-seed A --holdout-seed B \\
        --workload grid|exec|serve [--seed N|holdout] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/ (which compiles the csr
libraries from src/) into .bench_build/; later runs only check the build.
Each run gets a private, initially empty work directory under .bench_build/
for native kernel caches, journals and temporary files, removed afterwards.
The benchmark's JSON result is the last line of standard output; the exit
code is non-zero when the build fails or an output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    source = os.path.join(ROOT, "perfbench")
    binary = os.path.join(BUILD, "csr_perfbench")
    # Keeps the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", source, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr, env=env).returncode != 0:
            return None
    command = ["cmake", "--build", BUILD, "--target", "csr_perfbench", "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return binary if os.path.exists(binary) else None


def run(binary, args, seed):
    os.makedirs(BUILD, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=BUILD)
    env = dict(os.environ)
    env.pop("CSR_CC", None)
    env.pop("CSR_FAKE_CC", None)
    env["CSR_NATIVE_CACHE_DIR"] = os.path.join(work, "native-cache")
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"])
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work, "--serve-rate", str(args.serve_rate)]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{seed}.json")]
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid", "exec", "serve"])
    parser.add_argument("--seed", help="an integer, or 'holdout' for --holdout-seed")
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--serve-rate", type=float, required=True,
                        help="offered rate of the serve workload's open-loop phase, req/s")
    parser.add_argument("--default-seed", type=int, required=True)
    parser.add_argument("--holdout-seed", type=int, required=True)
    args = parser.parse_args()

    if args.seed is None:
        seed = args.default_seed
    elif args.seed == "holdout":
        seed = args.holdout_seed
    elif args.seed.isdigit():
        seed = int(args.seed)
    else:
        parser.error("--seed must be a non-negative integer or 'holdout'")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    return run(binary, args, seed)


if __name__ == "__main__":
    sys.exit(main())
