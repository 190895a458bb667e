#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (the cybok library from
src/ plus the benchmark binary) into $CARGO_TARGET_DIR or .bench_build,
prepares the workload's seeded inputs in an untimed step, runs the
measurement, and relays its output: human-readable lines, then one JSON
result line. Exits non-zero when the build fails, an output check fails,
or the run does not finish in time. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import socket
import subprocess
import sys
import time

WORKLOADS = ("fleet_batch", "serve_analyst", "serve_feed", "report_export")
DEADLINE_S = 175  # a run must end within 180 s of starting
BUILD_DEADLINE_S = 880  # the first run in a checkout builds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def provenance(root):
    """Host, commit (when the checkout is a git repository) and a digest of
    the library sources, which identifies the measured code either way."""
    git = ""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
        # Only this checkout's own history counts, not an enclosing repository's.
        if top and os.path.realpath(top) == os.path.realpath(root):
            git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return (f"provenance: host={socket.gethostname()} git={git or 'unavailable (not a git checkout)'} "
            f"src_sha256={digest.hexdigest()[:16]}")


def build(root, bench_dir):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) are missing; nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    started = time.monotonic()
    with open(log_path, "w") as out:
        cmds = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmds.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        cmds.append(["cmake", "--build", build_dir, "-j4"])
        for cmd in cmds:
            left = BUILD_DEADLINE_S - (time.monotonic() - started)
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=left).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError(f"build failed: {' '.join(cmd)}")
    return build_dir


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="build and run the harness self-tests")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        build_dir = build(root, bench_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2
    started = time.monotonic()
    if a.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    print(provenance(root), flush=True)
    binary = os.path.join(build_dir, "perfbench")
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{a.workload}-s{a.seed}-t{a.trace}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--seed", str(a.seed), "--dir", work]
    try:
        prep = [binary, "prepare", "--workload", "all" if a.trace else a.workload] + common
        rc = subprocess.run(prep, timeout=DEADLINE_S).returncode
        if rc != 0:
            log(f"input preparation failed (exit {rc})")
            return 2
        left = DEADLINE_S - (time.monotonic() - started)
        run = [binary, "run", "--workload", a.workload, "--seconds", str(a.seconds),
               "--trace", str(a.trace)] + common
        proc = subprocess.run(run, stdout=subprocess.PIPE, timeout=left)
        sys.stdout.write(proc.stdout.decode())
        sys.stdout.flush()
        trace = os.path.join(work, "trace.json")
        if os.path.isfile(trace):
            keep = os.path.join(work_root, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(trace, os.path.join(keep, f"{a.workload}-s{a.seed}.trace.json"))
        return proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {DEADLINE_S} s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
