#!/usr/bin/env python3
"""Record the reference digests that ``run.py`` checks artifacts against.

    python3 bench/reference.py

Run from the root of a source checkout whose outputs are trusted.  For every
workload it generates the inputs at the default seed, runs one job, and
writes the SHA-256 of each input and artifact to ``bench/reference.json``.
It refuses to record a job that fails its verdicts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import REFERENCE, make_inputs, program_env, run_job
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd().resolve()
    workdir = root / ".bench_out" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for wl in WORKLOADS.values():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            env = program_env(root, workdir)
            inputs = make_inputs(wl, DEFAULT_SEED, workdir, env)
            job = run_job(wl, DEFAULT_SEED, workdir, env, 0, traced=False)
            if job.problems:
                print(f"{wl.name}: not recorded: {job.problems}", file=sys.stderr)
                return 1
            reference[wl.name] = {"seed": DEFAULT_SEED, "inputs": inputs,
                                  "artifacts": job.digests}
            print(f"{wl.name}: {len(inputs)} inputs, {len(job.digests)} artifacts")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
