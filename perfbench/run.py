#!/usr/bin/env python3
"""Build and run the study-pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs rebuild incrementally. Build output goes
to standard error. Every argument is handed to the wsg_perfbench binary,
whose last line of standard output is the result object; see
perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the caller's 180 s limit per run.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "wsg_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "wsg_perfbench")


def main(argv):
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
    # The binary reads perfbench/expected.json relative to the root.
    cmd = [binary, "--socket-dir", os.path.relpath(build_dir(), ROOT)] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
