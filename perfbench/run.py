#!/usr/bin/env python3
"""Build and run the HyperEar benchmark from the root of a source checkout.

    python3 perfbench/run.py --rate-rps R --latency-limit-ms L \
        --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles ../src) into the directory
named by CARGO_TARGET_DIR, or .bench_build, then runs the benchmark binary
with the same arguments and passes its output and exit code through. Build output
goes to stderr, so the last line of stdout is always the binary's result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "hyperear_perfbench"


def build(build_dir: Path) -> Path:
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / BINARY


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-out", str(build_dir / "perfbench_trace.json")]
    args += ["--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run([str(binary), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
