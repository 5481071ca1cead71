#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

    python3 simbench/run.py --workload miss_path --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The simulator and the benchmark program
are compiled with CMake into $CARGO_TARGET_DIR/simbench (default
.bench_build/simbench); a rebuild is incremental. Build output goes to
stderr, so the last line of stdout is the JSON result of simbench. All
arguments are passed to simbench (see simbench.cc).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "simbench")


def build(targets=("simbench",)):
    """Configure once, then build @targets; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: simulator sources not found under %s/src" % ROOT)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("simbench: build failed: %s" % " ".join(cmd))
    return bdir


def clean_env():
    """The environment without D2M_* knobs, which would change the grid."""
    return {k: v for k, v in os.environ.items() if not k.startswith("D2M_")}


def main():
    binary = os.path.join(build(), "simbench")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], clean_env())


if __name__ == "__main__":
    main()
