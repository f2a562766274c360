#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--plan-seed N] [--small] [--plant checksum|digest]

Run from the root of a checkout. The first call configures and builds the
simulator libraries and the `perfbench` driver (RelWithDebInfo) under
`$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when the
variable is unset; build output goes to standard error. The driver's
standard output is passed through, so its last line is the result object.
A traced run writes its Chrome trace to `<build dir>/traces/`.

Exit status: the driver's, or 2 when the simulator sources are missing or
the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def flag_value(args, flag, default):
    i = args.index(flag) + 1 if flag in args else len(args)
    return args[i] if i < len(args) else default


def main(argv) -> int:
    out = build_dir()
    if not build(out):
        return 2
    args = list(argv)
    if flag_value(args, "--trace", "0") == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = flag_value(args, "--workload", "run")
        seed = flag_value(args, "--seed", "default")
        args += ["--trace-out", str(traces / f"{name}-seed{seed}.json")]
    args += ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run([str(out / "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
