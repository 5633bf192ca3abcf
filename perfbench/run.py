#!/usr/bin/env python3
"""Build and run the colibri simulator benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload uniform_1k --held-out --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

The script configures and builds perfbench/ (which builds libcolibri from
this checkout's sources) as a Release build under .bench_build/, or under
$CARGO_TARGET_DIR when that is set, then runs the benchmark program. Its
stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. The line before it, `record: {...}`, stamps the provenance
(git SHA and dirty flag, a digest of the sources, build type, compiler,
nproc, host, seed); records are also appended to .bench_out/records.jsonl.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig3_sweep", "uniform_1k", "contended_sync")
# The simulator's own run time is bounded by --seconds plus one iteration
# of each kind; this only guards against a hung process.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def seeds():
    with open(BENCH_DIR / "seeds.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure and build (Release); build output goes to stderr."""
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    out = out / "perfbench-release"
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return out


def git_provenance():
    if not (ROOT / ".git").exists():
        return {"git_sha": "none", "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha.stdout.strip(),
            "git_dirty": bool(status.stdout.strip())}


def source_digest():
    """sha256 over the simulator sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out seed from seeds.json")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the split-driver equivalence checks")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no colibri sources next to {BENCH_DIR.name}/ "
             "(run from the root of a full checkout)")

    if args.selftest:
        out = build()
        sys.exit(subprocess.run([str(out / "perfbench_selftest")],
                                timeout=600).returncode)

    if args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    seed_table = seeds()
    if args.seed is None:
        args.seed = seed_table["held_out" if args.held_out else "default"]
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build()
    out_dir = ROOT / ".bench_out"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)

    lines = proc.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing", 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
            record.update(git_provenance())
            record["source_sha256"] = source_digest()
            record["default_seed"] = seed_table["default"]
            record["held_out_seed"] = seed_table["held_out"]
            record["correct"] = result["correct"]
            text = json.dumps(record, sort_keys=True)
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / "records.jsonl", "a", encoding="utf-8") as f:
                f.write(text + "\n")
            print("record: " + text)
        else:
            print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
