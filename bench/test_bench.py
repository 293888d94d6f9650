"""Tests of the benchmark itself, on a tiny workload so they run in seconds.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import covergeo  # noqa: E402
import covergeo.cli  # noqa: E402
import covergeo.flatnorm  # noqa: E402
import covergeo.partition  # noqa: E402
from inputs import puncture  # noqa: E402
from run import (  # noqa: E402
    END_TO_END_UNITS,
    check_digests,
    make_inputs,
    per_layer,
    program_env,
    run_job,
)
from tracer import PER_LAYER_METRICS, SELF_TIME_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Artifact, Workload, _partition_verdict  # noqa: E402

TINY_ARTIFACTS = (
    Artifact("d.labels.pgm"),
    Artifact("d.regions.json"),
    Artifact("d.certificate.json"),
)


def _tiny(delta: str) -> Workload:
    return Workload(
        name="tiny",
        why="test",
        inputs=lambda seed: [["shape", "--shape", "disk", "--radius", "12", "--out", "d.pbm"]],
        invocations=lambda seed: [
            ["partition", "--mask", "d.pbm", "--delta", delta, "--out-prefix", "d"]
        ],
        input_files=("d.pbm", "d.hdr"),
        artifacts=TINY_ARTIFACTS,
        verdicts=lambda workdir, stdouts: _partition_verdict(workdir, stdouts[0], "d"),
    )


def _prepared(tmp_path: Path, wl: Workload) -> dict:
    env = program_env(ROOT, tmp_path)
    make_inputs(wl, 0, tmp_path, env)
    return env


def test_passing_job_then_altered_artifact_fails(tmp_path):
    wl = _tiny("4")
    env = _prepared(tmp_path, wl)
    job = run_job(wl, 0, tmp_path, env, 0, traced=False)
    assert job.problems == []
    assert set(job.digests) == {a.name for a in TINY_ARTIFACTS}
    assert job.wall_s > 0 and job.peak_rss_mb > 0

    again = run_job(wl, 0, tmp_path, env, 1, traced=False)
    check_digests(again, job.digests)
    assert again.problems == []

    # the program writing different bytes than the reference is a failure
    altered = dict(job.digests)
    altered["d.regions.json"] = "0" * 64
    check_digests(again, altered)
    assert again.problems == ["d.regions.json differs from the reference"]


def test_nonzero_exit_fails(tmp_path):
    wl = _tiny("1")  # below the 4h resolution floor: hypothesis violation, exit 2
    env = _prepared(tmp_path, wl)
    job = run_job(wl, 0, tmp_path, env, 0, traced=False)
    assert len(job.problems) == 1
    assert job.problems[0].startswith("partition exited 2")


def test_failed_verdict_fails(tmp_path):
    wl = _tiny("4")
    wl = Workload(**{**wl.__dict__, "verdicts": lambda workdir, stdouts: ["not a pass"]})
    env = _prepared(tmp_path, wl)
    assert run_job(wl, 0, tmp_path, env, 0, traced=False).problems == ["not a pass"]


def test_traced_job_self_times_add_up(tmp_path):
    wl = _tiny("4")
    env = _prepared(tmp_path, wl)
    plain = run_job(wl, 0, tmp_path, env, 0, traced=False)
    traced = run_job(wl, 0, tmp_path, env, 1, traced=True)
    assert traced.problems == []
    assert traced.digests == plain.digests
    m = per_layer([traced], plain.wall_s)
    assert set(m) == set(PER_LAYER_METRICS)
    total = sum(m[f"{layer}.s"] for layer in SELF_TIME_LAYERS) + m["cli.process.s"]
    assert total == pytest.approx(m["trace.job_s"], abs=1e-6)
    assert m["trace.overhead_s"] == pytest.approx(m["trace.job_s"] - plain.wall_s)
    assert m["grid.opening_stability.calls"] == 1
    assert m["partition.regions"] > 0 and m["partition.build.s"] > 0
    assert m["partition.export.bytes"] == sum(
        (tmp_path / a.name).stat().st_size for a in TINY_ARTIFACTS
    )


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    originals = {
        (covergeo.partition, "perimeter"): covergeo.partition.perimeter,
        (covergeo, "perimeter"): covergeo.perimeter,
        (covergeo.flatnorm, "maximum_flow"): covergeo.flatnorm.maximum_flow,
        (covergeo.cli, "read_mask"): covergeo.cli.read_mask,
    }
    tracer = Tracer(job=7)
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn
        mask = str(tmp_path / "d.pbm")
        assert covergeo.cli.main(["shape", "--shape", "disk", "--radius", "6", "--out", mask]) == 0
        assert covergeo.cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "0.5",
                                  "--out", str(tmp_path / "f.json")]) == 0
    finally:
        tracer.remove()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert tracer.restored()
    names = {s["name"] for s in tracer.spans}
    assert {"grid.mask_io", "flatnorm.graph", "flatnorm.maxflow", "flatnorm.extract"} <= names
    assert all(s["job"] == 7 and s["end"] >= s["start"] for s in tracer.spans)
    cut = next(s for s in tracer.spans if s["name"] == "flatnorm.maxflow")
    assert tracer.spans[cut["parent"]]["name"] == "flatnorm.graph"


def test_puncture_is_seeded_and_inside_the_core(tmp_path):
    disk = str(tmp_path / "disk.pbm")
    assert covergeo.cli.main(["shape", "--shape", "disk", "--radius", "64", "--out", disk]) == 0
    outs = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = tmp_path / f"{name}.pbm"
        i, j = puncture(disk, 2.5 / 64.0, 12.0, seed, str(out))
        outs[name] = (out.read_bytes(), (i, j))
    assert outs["a"] == outs["b"]
    assert outs["a"][0] != outs["c"][0]
    sigma = covergeo.flatnorm_minimize(covergeo.read_mask(disk), 2.5 / 64.0).sigma
    core = covergeo.erode(sigma, 12.0).mask
    punctured = covergeo.read_mask(str(tmp_path / "a.pbm")).mask
    i, j = outs["a"][1]
    assert core[i : i + 2, j : j + 2].all()
    assert (sigma.mask & ~punctured).sum() == 4


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "cover-disk64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
