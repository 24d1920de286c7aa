#!/usr/bin/env python3
"""Build pipebench from source and run one workload.

Usage (from the repository root):
    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary is configured and built (Release) into $CARGO_TARGET_DIR/pipebench,
or .bench_build/pipebench when that variable is unset; an up-to-date build is
a no-op. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. With --trace 1 the Chrome trace-event file lands
next to the binary. Exits non-zero without a result if the library sources
are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "pipebench")


def build():
    """Configure once, then build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "decomp", "edt.hpp")):
        print("pipebench: library sources (src/) not found next to the benchmark",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("pipebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "pipebench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    args = list(argv)
    if "--trace" in args and args.index("--trace") + 1 < len(args):
        traced = args[args.index("--trace") + 1] != "0"
        if traced and "--trace-out" not in args:
            workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
            seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
            args += ["--trace-out",
                     os.path.join(build_dir(), "trace-%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)  # replaces this process; nothing left running


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
