#!/usr/bin/env python3
"""Run every workload and check that the benchmark is deterministic.

    python3 perfbench/selfcheck.py [--seed 1] [--seconds 15] [--workload NAME ...]

For each workload this makes one untraced run and two traced runs on the
same seed, prints every end-to-end and per-layer metric by name and unit,
and fails (exit 1) unless the two traced runs report the same corpus digest
and identical per-layer counts, and every run reports ``correct``.  Each run
itself also checks that seed n+1 gives a different corpus.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.rsplit(" ", 1)[1] for line in lines if line.startswith("corpus "))
    return digest, json.loads(lines[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        digest, plain = run(workload, args.seed, args.seconds, 0)
        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"} for _, r in traced]
        same = traced[0][0] == traced[1][0] == digest and counts[0] == counts[1]
        correct = all(r["correct"] for r in (plain, traced[0][1], traced[1][1]))
        ok &= same and correct
        print(f"== {workload} seed {args.seed}: digest {digest}, "
              f"{'identical' if same else 'DIFFERENT'} traced counts, correct {correct}, "
              f"failed calls {plain['failed']} of {plain['attempted']}")
        for name, m in {**plain["metrics"], **traced[0][1]["metrics"]}.items():
            print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
