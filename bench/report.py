#!/usr/bin/env python3
"""Run every workload once and print one table of its metrics.

    python3 bench/report.py --seed 0 --seconds 24 [--trace 1]

Run from the root of a source checkout.  Each workload runs as its own
``bench/run.py`` process, one after the other.  Untraced, the table has
``job_s``, ``peak_rss_mb``, ``setup_s`` and ``fail_frac`` with their units;
traced, every per-layer metric, with the tracing overhead among them.
Exits 1 when a run fails or a job fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/report.py")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        results[name] = json.loads(lines[-1])

    names = list(WORKLOADS)
    rows = {}
    for name in names:
        res = results[name]
        metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
        metrics.pop("ok_frac", None)
        metrics["fail_frac"] = (res["failed"] / res["attempted"], "fraction")
        for metric, value in metrics.items():
            rows.setdefault(metric, {})[name] = value
    width = max(len(n) for n in names)
    print(f"{'metric':30s} {'unit':8s} " + " ".join(f"{n:>{width}s}" for n in names))
    for metric, by_name in rows.items():
        unit = next(iter(by_name.values()))[1]
        print(f"{metric:30s} {unit:8s} "
              + " ".join(f"{by_name[n][0]:>{width}.6g}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
