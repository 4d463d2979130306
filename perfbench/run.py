#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload embed-churn --seed 1 --seconds 10 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default perfbench/target). The
binary's standard output is passed through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. If the binary dies
(a panic, an abort, a signal or a timeout) this script names the
workload and the phase it died in, prints a failed result and exits 1.
Without the repository's crates next to perfbench/ the build fails and
the script exits 1 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("embed-churn", "svc-rtt", "svc-scan-mix")
# The binary's own watchdog ends a wedged run sooner; this is the backstop.
RUN_TIMEOUT_S = 170


def build():
    """Build the release binary and return its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", MANIFEST, "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "perfbench":
            exe = msg.get("executable") or exe
    if proc.returncode != 0 or not exe:
        print(f"perfbench: build failed (cargo exit {proc.returncode})", file=sys.stderr)
        return None
    return exe


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def last_phase(stderr):
    phases = [l.split("phase ", 1)[1] for l in stderr.splitlines() if l.startswith("perfbench: phase ")]
    return phases[-1] if phases else "start"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--git-rev", git_rev(),
    ]
    if args.trace == "1":
        out = os.path.join(os.path.dirname(exe), "perfbench-traces", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--trace-out", out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed the binary and waited for it.
        code = "timeout"
        stdout = (e.stdout or b"").decode(errors="replace") if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr = (e.stderr or b"").decode(errors="replace") if isinstance(e.stderr, bytes) else (e.stderr or "")
    sys.stderr.write(stderr)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code == 0:
        return 0
    print(
        f"perfbench: workload {args.workload} died in phase {last_phase(stderr)} (exit {code})",
        file=sys.stderr,
    )
    if not stdout.rstrip().splitlines()[-1:] or not stdout.rstrip().splitlines()[-1].startswith('{"correct"'):
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
