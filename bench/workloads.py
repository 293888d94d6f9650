"""The benchmark's four workloads: inputs, CLI invocations, artifacts, verdicts.

Every workload is a fixed sequence of ``covergeo`` CLI invocations run in a
work directory that holds the generated inputs.  Paths in the invocations
are relative to that directory, so the command lines below are exactly what
a user would type there (after ``python -m covergeo.cli``).

Each workload is chosen so that one layer of the program dominates it and
others do nothing; its ``why`` gives the reason, and ``README.md`` maps each
per-layer metric to the workloads it should move on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# the lambda = 2.5/64 minimizer of disk(64) is the pipeline input, as in the
# acceptance test of the almost-coverage pipeline
PIPELINE_LAMBDA = 2.5 / 64.0
# the puncture sits among cells of the minimizer eroded by this radius, far
# enough inside that the minimizer fills it and the hypotheses hold
PUNCTURE_CORE = 12.0
FLATNORM_LADDER = ("0.08", "0.125", "0.25")


@dataclass(frozen=True)
class Artifact:
    """A file a workload writes; ``seeded`` when its bytes depend on --seed."""

    name: str
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (argv for ``covergeo shape`` or the puncture step) building the inputs
    inputs: Callable[[int], list[list[str]]]
    invocations: Callable[[int], list[list[str]]]
    input_files: tuple[str, ...]
    artifacts: tuple[Artifact, ...]
    # reads the work directory and the invocations' stdout, returns problems
    verdicts: Callable[[str, list[str]], list[str]]


def _shape(radius: int, out: str) -> list[str]:
    return ["shape", "--shape", "disk", "--radius", str(radius), "--out", out]


def _read_json(workdir: str, name: str) -> dict:
    with open(f"{workdir}/{name}") as fh:
        return json.load(fh)


def _partition_verdict(workdir: str, stdout: str, prefix: str) -> list[str]:
    problems = []
    if "certificate: pass" not in stdout:
        problems.append(f"partition did not print 'certificate: pass': {stdout.strip()!r}")
    if _read_json(workdir, f"{prefix}.certificate.json").get("verdict") is not True:
        problems.append(f"{prefix}.certificate.json verdict is not true")
    return problems


def _cover_verdicts(workdir: str, stdouts: list[str]) -> list[str]:
    problems = _partition_verdict(workdir, stdouts[0], "disk64")
    if "soundness: pass over 3 rungs" not in stdouts[1]:
        problems.append(f"cover did not pass on every rung: {stdouts[1].strip()!r}")
    return problems


def _partition128_verdicts(workdir: str, stdouts: list[str]) -> list[str]:
    return _partition_verdict(workdir, stdouts[0], "disk128")


def _pipeline_verdicts(workdir: str, stdouts: list[str]) -> list[str]:
    report = _read_json(workdir, "rough64.pipeline.json")
    problems = []
    if report["certificate"]["verdict"] is not True:
        problems.append("pipeline certificate verdict is not true")
    if not report["ladder"] or not all(r["sound"] is True for r in report["ladder"]):
        problems.append("pipeline ladder has a rung that is not sound")
    return problems


def _flatnorm_verdicts(workdir: str, stdouts: list[str]) -> list[str]:
    results = _read_json(workdir, "disk32.flatnorm.json")["results"]
    problems = []
    if len(results) != len(FLATNORM_LADDER):
        problems.append(f"flatnorm reported {len(results)} lambdas, expected {len(FLATNORM_LADDER)}")
    for entry in results:
        check = entry.get("reach_check")
        if check is None or check.get("verdict") is not True:
            problems.append(f"lambda {entry['lambda']}: reach check missing or not a pass")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cover-disk64",
            why=(
                "partition then a full-coverage Monte Carlo ladder on disk(64): "
                "the coverage verdict dominates and min cut does nothing"
            ),
            inputs=lambda seed: [_shape(64, "disk64.pbm")],
            invocations=lambda seed: [
                ["partition", "--mask", "disk64.pbm", "--delta", "8", "--out-prefix", "disk64"],
                [
                    "cover", "--mask", "disk64.pbm", "--delta", "8",
                    "--n-ladder", "2717,5434,10868", "--trials", "200",
                    "--seed", str(seed), "--out", "disk64.ladder.csv",
                ],
            ],
            input_files=("disk64.pbm", "disk64.hdr"),
            artifacts=(
                Artifact("disk64.labels.pgm"),
                Artifact("disk64.regions.json"),
                Artifact("disk64.certificate.json"),
                Artifact("disk64.ladder.csv", seeded=True),
            ),
            verdicts=_cover_verdicts,
        ),
        Workload(
            name="partition-disk128",
            why=(
                "partition and render of disk(128), the largest frame: the "
                "opening-stability probe and 1887 per-region certificates dominate"
            ),
            inputs=lambda seed: [_shape(128, "disk128.pbm")],
            invocations=lambda seed: [
                ["partition", "--mask", "disk128.pbm", "--delta", "8", "--out-prefix", "disk128"],
                ["render", "--labels", "disk128.labels.pgm", "--out", "disk128.labels.svg"],
            ],
            input_files=("disk128.pbm", "disk128.hdr"),
            artifacts=(
                Artifact("disk128.labels.pgm"),
                Artifact("disk128.regions.json"),
                Artifact("disk128.certificate.json"),
                Artifact("disk128.labels.svg"),
            ),
            verdicts=_partition128_verdicts,
        ),
        Workload(
            name="pipeline-rough64",
            why=(
                "almost-coverage pipeline on a punctured minimizer: 19 max-flow "
                "cuts of threshold bisection and almost-mode Monte Carlo dominate"
            ),
            inputs=lambda seed: [
                _shape(64, "disk64.pbm"),
                [
                    "puncture", "--mask", "disk64.pbm", "--lambda", repr(PIPELINE_LAMBDA),
                    "--core", repr(PUNCTURE_CORE), "--seed", str(seed), "--out", "rough64.pbm",
                ],
            ],
            invocations=lambda seed: [
                [
                    "pipeline", "--mask", "rough64.pbm", "--lambda", repr(PIPELINE_LAMBDA),
                    "--delta", "4.5", "--trials", "200", "--seed", str(seed),
                    "--out", "rough64.pipeline.json",
                ],
            ],
            input_files=("disk64.pbm", "disk64.hdr", "rough64.pbm", "rough64.hdr"),
            artifacts=(Artifact("rough64.pipeline.json", seeded=True),),
            verdicts=_pipeline_verdicts,
        ),
        Workload(
            name="flatnorm-reach32",
            why=(
                "flat-norm lambda ladder on disk(32) with overlays: the only path "
                "through the closing-stability reach check and overlay rendering"
            ),
            inputs=lambda seed: [_shape(32, "disk32.pbm")],
            invocations=lambda seed: [
                [
                    "flatnorm", "--mask", "disk32.pbm",
                    "--lambda-ladder", ",".join(FLATNORM_LADDER),
                    "--out", "disk32.flatnorm.json", "--out-prefix", "disk32",
                ],
            ],
            input_files=("disk32.pbm", "disk32.hdr"),
            artifacts=(Artifact("disk32.flatnorm.json"),)
            + tuple(Artifact(f"disk32.lam{float(lam):g}.svg") for lam in FLATNORM_LADDER),
            verdicts=_flatnorm_verdicts,
        ),
    )
}
