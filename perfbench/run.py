#!/usr/bin/env python3
"""Build the perfbench program from source and run it with the given flags.

Run from the repository root:

    python3 perfbench/run.py --workload fig2-saturated --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and then run with this script's arguments unchanged;
it parses them itself. Build output goes to stderr, so the last line of
stdout is the result JSON. Exit status: the program's (0 = every check
passed, 1 = a check failed, 2 = a usage error), or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def build(root, build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    cache = build_dir / "CMakeCache.txt"
    source = root / "perfbench"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}" not in cache.read_text(
        errors="replace"
    ):
        shutil.rmtree(build_dir)  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(
            ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return build_dir / "perfbench"


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "sim" / "engine.h").is_file():
        print(f"perfbench: bbsched sources not found under {root}/src", file=sys.stderr)
        return 1
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
