#!/usr/bin/env python3
"""Benchmark of the covergeo CLI, one workload per run.

    python3 bench/run.py --workload cover-disk64 --seed 0 --seconds 24 --trace 0

Run it from the root of a source checkout; it uses the package in ``src``.

The load is a closed loop with one client: one job at a time, each job a
fixed sequence of ``python -m covergeo.cli`` processes (see
``workloads.py``), each started only after the previous one exited.  A user
pays interpreter start and import on every invocation, so every invocation
is a fresh process.  Jobs repeat until ``--seconds`` is about used up.

Set-up, not timed in ``job_s``: the inputs are generated from the seed
(``covergeo shape`` and ``inputs.py``) and ``setup_s`` is measured as the
median of several fresh interpreters importing ``covergeo.cli``.

``--trace 0`` reports the end-to-end metrics:

* ``job_s``: median over jobs of the summed spawn-to-exit wall time of the
  job's invocations;
* ``peak_rss_mb``: largest peak resident set (MiB) of any CLI process;
* ``setup_s``: median wall time of a fresh ``import covergeo.cli``;
* ``ok_frac``: share of jobs that passed every check (1 - fail_frac).

A job fails when a process exits non-zero, an artifact's SHA-256 differs
from the reference (``reference.json``; artifacts that depend on the seed
are compared only at the default seed) or from the run's first job, or a
verdict it prints or writes is not a pass.

``--trace 1`` runs one untraced job, then traced jobs: each invocation runs
under ``tracer.py`` in its own process, so the per-layer self times plus
``cli.process.s`` (interpreter, import, argument parsing and whatever the
CLI does outside the layers) add up to the traced job's wall time.  It
reports the per-layer metrics as means over the traced jobs, and the
tracing overhead as traced minus untraced job wall time.

Summary lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the environment, every sample and the spans, is written
to ``.bench_out/<workload>.seed<S>.trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import PER_LAYER_METRICS, SELF_TIME_LAYERS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"job_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "fraction"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, inputs failed, wrong package)."""


@dataclass
class Proc:
    returncode: int
    wall_ns: int
    maxrss_kib: int
    cpu_s: float
    stdout: str


@dataclass
class Job:
    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    spans: list[list[dict]] = field(default_factory=list)


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> Proc:
    """Run one process to its end; wall time is spawn to reap."""
    with open(log, "w") as out:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
                log.read_text())


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "covergeo.cli", *args]


def program_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(workdir)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_inputs(wl: Workload, seed: int, workdir: Path, env: dict) -> dict[str, str]:
    """Generate the workload's inputs; returns their digests."""
    for args in wl.inputs(seed):
        argv = ([sys.executable, str(BENCH_DIR / "inputs.py"), *args]
                if args[0] == "puncture" else cli(args))
        proc = spawn(argv, workdir, env, workdir / "inputs.log")
        if proc.returncode != 0:
            raise BenchError(f"input step {args[0]} exited {proc.returncode}: {proc.stdout}")
    return {name: sha256(workdir / name) for name in wl.input_files}


_PROBE = (
    "import json, sys, covergeo.cli, covergeo, numpy, scipy; "
    "print(json.dumps({'covergeo': covergeo.__file__, 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'python': sys.version.split()[0]}))"
)


def measure_setup(root: Path, workdir: Path, env: dict) -> tuple[list[float], dict]:
    """Median-ready import times of ``covergeo.cli`` plus the library versions.

    The first import is untimed: it compiles the bytecode and warms the file
    cache, which a user pays once, not on every invocation.
    """
    probe = spawn([sys.executable, "-c", _PROBE], workdir, env, workdir / "setup.log")
    if probe.returncode != 0:
        raise BenchError(f"cannot import covergeo.cli: {probe.stdout}")
    versions = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(versions.pop("covergeo")).resolve().is_relative_to(root / "src"):
        raise BenchError("covergeo was imported from outside this checkout's src")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = spawn([sys.executable, "-c", "import covergeo.cli"], workdir, env,
                     workdir / "setup.log")
        if proc.returncode != 0:
            raise BenchError(f"import of covergeo.cli failed: {proc.stdout}")
        samples.append(proc.wall_ns / 1e9)
    return samples, versions


def run_job(wl: Workload, seed: int, workdir: Path, env: dict, job_id: int,
            traced: bool) -> Job:
    job = Job(traced=traced)
    for art in wl.artifacts:
        (workdir / art.name).unlink(missing_ok=True)
    stdouts = []
    for k, args in enumerate(wl.invocations(seed)):
        spans_path = workdir / f"spans.{job_id}.{k}.json"
        argv = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), str(job_id),
                 "--", *args] if traced else cli(args))
        proc = spawn(argv, workdir, env, workdir / f"invocation.{k}.log")
        job.wall_s += proc.wall_ns / 1e9
        job.peak_rss_mb = max(job.peak_rss_mb, proc.maxrss_kib / 1024.0)
        job.cpu_s += proc.cpu_s
        stdouts.append(proc.stdout)
        if traced and spans_path.is_file():
            record = json.loads(spans_path.read_text())
            job.spans.append(record["spans"])
            if not record["restored"]:
                job.problems.append(f"{args[0]}: tracer left a wrapper bound")
        elif traced:
            job.problems.append(f"{args[0]}: tracer wrote no spans")
        if proc.returncode != 0:
            job.problems.append(f"{args[0]} exited {proc.returncode}: {proc.stdout.strip()}")
            return job
    for art in wl.artifacts:
        path = workdir / art.name
        if path.is_file():
            job.digests[art.name] = sha256(path)
        else:
            job.problems.append(f"{art.name} was not written")
    if not job.problems:
        try:
            job.problems += wl.verdicts(str(workdir), stdouts)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            job.problems.append(f"unreadable verdict: {exc!r}")
    return job


def expected_digests(wl: Workload, seed: int, reference: dict) -> dict[str, str]:
    """The workload's reference digests that apply at this seed."""
    return {a.name: reference["artifacts"][a.name] for a in wl.artifacts
            if seed == DEFAULT_SEED or not a.seeded}


def check_digests(job: Job, expected: dict[str, str], source: str = "the reference") -> None:
    for name, digest in expected.items():
        if name in job.digests and job.digests[name] != digest:
            job.problems.append(f"{name} differs from {source}")


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n = {n})"
    i = n - 11
    return f"p{100.0 * (i + 1) / n:.1f} = {sorted(samples)[i]:.4f} s (10 samples beyond, n = {n})"


def environment(root: Path, seed: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions,
            "commit": git_commit(root), "seed": seed}


def git_commit(root: Path) -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
        workdir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    env = program_env(root, workdir)
    reference = json.loads(REFERENCE.read_text())[wl.name]
    input_digests = make_inputs(wl, seed, workdir, env)
    setup_samples, versions = measure_setup(root, workdir, env)
    # at the default seed the inputs themselves must match, or every job is wrong
    bad_inputs = seed == DEFAULT_SEED and reference["inputs"] != input_digests
    expected = expected_digests(wl, seed, reference)

    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        job = run_job(wl, seed, workdir, env, len(jobs), traced=trace and bool(jobs))
        if bad_inputs:
            job.problems.append("generated inputs differ from the reference")
        check_digests(job, expected)
        # every later job, traced or not, must reproduce the first job's bytes
        check_digests(job, jobs[0].digests if jobs else {}, "the run's first job")
        jobs.append(job)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * job.wall_s > seconds and (not trace or len(jobs) > 1):
            break

    failed = sum(1 for j in jobs if j.problems)
    attempted = len(jobs)
    untraced = [j for j in jobs if not j.traced]
    walls = [j.wall_s for j in untraced]
    end_to_end = {
        "job_s": statistics.median(walls),
        "peak_rss_mb": max(j.peak_rss_mb for j in untraced),
        "setup_s": statistics.median(setup_samples),
        "ok_frac": 1.0 - failed / attempted,
    }
    record = {
        "workload": wl.name,
        "env": environment(root, seed, versions),
        "seconds": seconds,
        "trace": int(trace),
        "inputs": input_digests,
        "setup_samples_s": setup_samples,
        "jobs": [{"traced": j.traced, "wall_s": j.wall_s, "peak_rss_mb": j.peak_rss_mb,
                  "cpu_s": j.cpu_s, "problems": j.problems, "digests": j.digests}
                 for j in jobs],
        "end_to_end": end_to_end,
        "high_percentile": high_percentile(walls),
    }
    if trace:
        traced = [j for j in jobs if j.traced]
        record["per_layer"] = metrics = per_layer(traced, statistics.median(walls))
        record["spans"] = [j.spans for j in traced]
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in PER_LAYER_METRICS.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    return result, record


def per_layer(traced: list[Job], untraced_job_s: float) -> dict[str, float]:
    """Means over the traced jobs; self times plus cli.process.s sum to trace.job_s."""
    per_job = []
    for job in traced:
        m = layer_metrics(job.spans)
        m["cli.process.s"] = job.wall_s - m.pop("spans_s")
        m["cli.cpu_s"] = job.cpu_s
        m["trace.job_s"] = job.wall_s
        per_job.append(m)
    mean = {name: statistics.fmean(m[name] for m in per_job) for name in per_job[0]}
    mean["trace.overhead_s"] = mean["trace.job_s"] - untraced_job_s
    return mean


def summary(result: dict, record: dict) -> list[str]:
    env = record["env"]
    lines = [
        f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}",
        "env " + json.dumps(env, sort_keys=True),
    ]
    e2e = record["end_to_end"]
    n_jobs = sum(1 for j in record["jobs"] if not j["traced"])
    lines += [
        f"job_s        {e2e['job_s']:.4f} s    median of {n_jobs} jobs; {record['high_percentile']}",
        f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB",
        f"setup_s      {e2e['setup_s']:.4f} s    median of {len(record['setup_samples_s'])} imports",
        f"fail_frac    {result['failed'] / result['attempted']:.4f}    "
        f"({result['failed']} of {result['attempted']} jobs failed)",
    ]
    if "per_layer" in record:
        n_traced = len(record["jobs"]) - n_jobs
        lines.append(f"per-layer means over {n_traced} traced jobs:")
        lines += [f"  {name:30s} {record['per_layer'][name]:.6g} {unit}"
                  for name, unit in PER_LAYER_METRICS.items()]
        m = record["per_layer"]
        total = sum(m[f"{layer}.s"] for layer in SELF_TIME_LAYERS) + m["cli.process.s"]
        lines.append(f"layer self times + cli.process.s = {total:.6f} s; "
                     f"trace.job_s = {m['trace.job_s']:.6f} s")
    for j in record["jobs"]:
        lines += [f"FAIL: {p}" for p in j["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd().resolve()
    if not (root / "src" / "covergeo" / "cli.py").is_file():
        print("bench/run.py: no src/covergeo here; run it from the root of a "
              "covergeo source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = run(wl, args.seed, args.seconds, bool(args.trace), root, workdir)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record_path = out_dir / f"{wl.name}.seed{args.seed}.trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary(result, record)))
    print(f"record {record_path.relative_to(root)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
