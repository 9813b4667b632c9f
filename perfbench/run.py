#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from source with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run of a fresh build directory also runs
the benchmark's self-tests. The last line of standard output is the result
JSON printed by the perfbench binary. Exits non-zero, printing no result, when
the build, the self-tests or the run fail.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(
                ["cmake", *generator, "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        return subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run(cmd, timeout, cwd=None):
    """Runs cmd in its own process group; returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True, cwd=cwd)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any daemon left behind
        except ProcessLookupError:
            pass
    return proc.returncode, out


def selftest(build_dir):
    rc, _ = run([os.path.join(build_dir, "perfbench_test")], RUN_TIMEOUT_S,
                cwd=build_dir)
    return rc == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        log("build failed")
        return 1
    stamp = os.path.join(build_dir, "selftest.ok")
    binary = os.path.join(build_dir, "perfbench")
    if args.selftest or not os.path.exists(stamp) or \
            os.path.getmtime(stamp) < os.path.getmtime(binary):
        if not selftest(build_dir):
            log("self-tests failed")
            return 1
        with open(stamp, "w") as f:
            f.write("ok\n")
    if args.selftest:
        return 0
    if not args.workload:
        ap.error("--workload is required")

    rc, out = run([binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   # Relative, so Unix socket paths stay short.
                   "--workdir", os.path.relpath(os.path.join(build_dir, "work"))],
                  RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        log(f"benchmark failed (exit {rc})")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
