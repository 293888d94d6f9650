"""Command-line front end.

Subcommands generate shapes, build and certify partitions, tabulate coverage
bounds, run Monte Carlo coverage ladders, minimize the boundary-plus-mass
objective, run the full almost-coverage pipeline, and render figures.

Exit codes: 0 on success, 2 when a certified construction's precondition
fails (the message names the violated inequality with its numbers, and a
second stderr line holds the same facts as one JSON object with
``inequality``, ``lhs``, ``rhs`` and ``margin``), 1 for any other error.
Every artifact a command writes is a deterministic function of the
arguments and seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from . import bounds as bounds_mod
from . import flatnorm as flatnorm_mod
from . import montecarlo as mc
from . import partition as partition_mod
from . import render as render_mod
from . import shapes as shapes_mod
from .errors import CovergeoError, HypothesisViolation, check_positive_finite
from .grid import SCHEMA, read_mask, write_mask

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for hypothesis
    # violations here, so route usage problems to exit 1
    def error(self, message):  # noqa: D102
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict, path: str | None) -> None:
    _write_text(partition_mod.table_json(payload), path)


def _parse_ladder(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise CovergeoError(f"bad sample-count ladder {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise CovergeoError(f"sample-count ladder must be positive: {text!r}")
    for v in values:
        check_positive_finite(v, "sample count")  # a bound reads N as a float
    return values


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise CovergeoError(f"bad {what} {text!r}") from exc
    if not values:
        raise CovergeoError(f"empty {what}")
    for v in values:
        check_positive_finite(v, f"{what} entry")
    return values


# ---------------------------------------------------------------------------
# subcommands


# shape -> (the flags it reads, each a group of alternatives of which one
# is needed; its builder).  --h has a default, so its group is never short.
# Builders look up module globals at call time, so rebinding them (as the
# bench tracer does) reaches every shape.
_SHAPES = {
    "disk": ((("radius",), ("h",)), lambda a: shapes_mod.disk(a.radius, a.h)),
    "two-disks": ((("radius",), ("separation",), ("h",)),
                  lambda a: shapes_mod.two_disks(a.radius, a.separation, a.h)),
    "dumbbell": ((("radius",), ("neck_halfwidth",), ("center_distance",), ("h",)),
                 lambda a: shapes_mod.dumbbell(a.radius, a.neck_halfwidth, a.center_distance, a.h)),
    "cube": ((("side",), ("h",)), lambda a: shapes_mod.box(a.side, a.h)),
    "disk-minus-hole": ((("radius",), ("hole_side", "hole_radius"), ("h",)),
                        lambda a: shapes_mod.disk_minus_box(a.radius, a.hole_side, h=a.h)
                        if a.hole_radius is None
                        else shapes_mod.disk_minus_disk(a.radius, a.hole_radius, a.h)),
    "from-mask-file": ((("mask",),), lambda a: read_mask(a.mask)),
}
_SHAPE_FLAGS = {name for flags, _ in _SHAPES.values() for group in flags for name in group}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse_unread(what: str, args, flags: set[str], reads: set[str]) -> None:
    """Refuse any of ``flags`` that is set but not in ``reads``."""
    unread = sorted(name for name in flags - reads if getattr(args, name) is not None)
    if unread:
        raise CovergeoError(f"{what} does not read {', '.join(map(_flag, unread))}")


def _cmd_shape(args) -> int:
    kind = args.shape
    flags, build = _SHAPES[kind]
    reads = {name for group in flags for name in group}
    if "h" in reads and args.h is None:
        args.h = 1.0
    for group in flags:
        if all(getattr(args, name) is None for name in group):
            raise CovergeoError(f"--shape {kind} needs {' or '.join(map(_flag, group))}")
    for name in ("separation", "neck_halfwidth", "center_distance", "side", "hole_side", "hole_radius"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise CovergeoError(f"{_flag(name)} must be finite, got {value}")
    # every shape checks --radius and --h alike, also those that read neither,
    # so a bad value is named before an unread flag is refused
    if args.radius is not None:
        check_positive_finite(args.radius, "radius")
    if args.h is not None:
        check_positive_finite(args.h, "cell size")
    _refuse_unread(f"--shape {kind}", args, _SHAPE_FLAGS, reads)
    s = build(args)
    if s.is_empty:
        raise CovergeoError("shape parameters produce an empty set")
    write_mask(s, args.out)
    print(f"wrote {args.out}: {s.count} cells, h = {s.h}, dims = {s.dims}")
    return 0


def _cmd_partition(args) -> int:
    e = read_mask(args.mask)
    if args.eta:
        part = partition_mod.partition_with_eta(e, args.delta)
    else:
        part = partition_mod.good_partition(e, args.delta)
    cert = partition_mod.certify_good(part)
    prefix = args.out_prefix
    partition_mod.write_labels(part, prefix + ".labels.pgm")
    _dump_json(partition_mod.region_table(part), prefix + ".regions.json")
    _write_text(partition_mod.certificate_json(cert), prefix + ".certificate.json")
    print(
        f"regions: {part.region_count}  ell: {part.ell}  "
        f"certificate: {'pass' if cert.verdict else 'fail'}"
    )
    return 0


# kind -> (the flags it reads, builder of its coverage bound), looked up at
# call time like _SHAPES
_BOUNDS = {
    "reach": (("m", "n", "delta", "measure_e"),
              lambda a: bounds_mod.bound_reach(a.m, a.n, a.delta, a.measure_e)),
    "regions": (("region_measures", "measure_e"), lambda a: bounds_mod.bound_regions(
        _parse_floats(a.region_measures, "region-measure list"), a.measure_e)),
    "u-minus-a": (("m", "n", "delta", "measure_a", "measure_e"),
                  lambda a: bounds_mod.bound_U_minus_A(a.m, a.n, a.delta, a.measure_a, a.measure_e)),
    "flatnorm": (("m", "delta", "measure_s", "measure_a"),
                 lambda a: bounds_mod.bound_flatnorm(a.m, a.delta, a.measure_s, a.measure_a)),
}
# every flag a bound kind may read, with its default
_BOUND_DEFAULTS = {"m": 1, "n": 2, "delta": 1.0, "measure_e": 1.0, "measure_a": 0.0,
                   "measure_s": 0.0, "region_measures": ""}


def _cmd_bound(args) -> int:
    reads, build = _BOUNDS[args.kind]
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, _BOUND_DEFAULTS[name])
    # the ladder is checked first, then the values the bound reads and its
    # hypotheses, and only then is an unread flag refused
    ladder = _parse_ladder(args.n_ladder)
    b = build(args)
    _refuse_unread(f"--kind {args.kind}", args, set(_BOUND_DEFAULTS), set(reads))
    rows = [b.describe(n) for n in ladder]
    if args.format == "csv":
        lines = ["N,bound"]
        lines += [f"{r['N']},{r['value']:.9f}" for r in rows]
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        _dump_json({"schema": SCHEMA, "kind": b.kind, "table": rows}, args.out)
    return 0


def _check_sampling(args) -> None:
    """Refuse a trial count below 1, and a seed that is not a uint64 (the
    library would wrap it onto another seed's draws), before any work."""
    if args.trials < 1:
        raise CovergeoError(f"need at least one trial, got {args.trials}")
    if not 0 <= args.seed < 2**64:
        raise CovergeoError(f"seed must be in [0, 2^64), got {args.seed}")


def _rungs(e, bound, ladder: list[int], args, **mode) -> list[tuple[int, float, mc.TrialReport]]:
    """(N, bound(N), Monte Carlo report) for every rung of ``ladder``.

    Balls have radius 3 delta; ``mode`` holds the almost-coverage keywords.
    """
    reports = mc.estimate_ladder(e, r=3.0 * args.delta, ladder=ladder, trials=args.trials,
                                 seed=args.seed, bound=bound.evaluate, **mode)
    return [(rep.n_samples, rep.bound_value, rep) for rep in reports]


def _cmd_cover(args) -> int:
    _check_sampling(args)
    e = read_mask(args.mask)
    part = partition_mod.good_partition(e, args.delta)
    b = bounds_mod.bound_reach(part.region_count, e.ndim, args.delta, e.measure)
    rows = _rungs(e, b, _parse_ladder(args.n_ladder), args)
    _write_text(mc.ladder_csv(rows), args.out)
    sound = all(rep.sound for *_, rep in rows)
    print(f"soundness: {'pass' if sound else 'FAIL'} over {len(rows)} rungs")
    return 0


def _overlay_paths(prefix: str, lams: list[float]) -> dict[float, str]:
    """The overlay file of every lambda; refuses two distinct lambdas that
    ``:g`` spells alike, since the second overlay would overwrite the first."""
    paths: dict[float, str] = {}
    owner: dict[str, float] = {}
    for lam in lams:
        path = paths[lam] = f"{prefix}.lam{lam:g}.svg"
        first = owner.setdefault(path, lam)
        if first != lam:
            raise CovergeoError(f"lambdas {first!r} and {lam!r} would both write the overlay {path}")
    return paths


def _cmd_flatnorm(args) -> int:
    lams = _parse_floats(args.lambda_ladder, "lambda ladder")
    overlays = _overlay_paths(args.out_prefix, lams) if args.out_prefix else {}
    e = read_mask(args.mask)
    results = []
    minimized = {}  # lambda -> its minimizer, so a repeated lambda is cut once
    radii = {}  # minimizer mask -> its two stability radii, shared across lambdas
    for lam in lams:
        if lam not in minimized:
            minimized[lam] = flatnorm_mod.flatnorm_minimize(e, lam)
        res = minimized[lam]
        entry = {
            "lambda": lam,
            "energy": res.energy,
            "perimeter": res.perim_sigma,
            "sym_diff": res.sym_diff_measure,
            "sigma_cells": int(res.sigma.count),
        }
        if not res.sigma.is_empty:
            key = res.sigma.mask.tobytes()
            rep = flatnorm_mod.minimizer_reach_check(res, radii.get(key))
            radii[key] = rep.radius_sigma, rep.radius_complement
            entry["reach_check"] = {
                "floor": rep.floor,
                "radius_sigma": rep.radius_sigma,
                "radius_complement": rep.radius_complement,
                "verdict": rep.verdict,
            }
        results.append(entry)
        if overlays:
            _write_text(render_mod.render_overlay(e, res.sigma), overlays[lam])
    _dump_json({"schema": SCHEMA, "results": results}, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    _check_sampling(args)
    e = read_mask(args.mask)
    part, bound = flatnorm_mod.almost_cover_pipeline(e, args.lam, args.delta)
    alpha = args.delta**2 / (2.0 * e.measure)
    cert = partition_mod.certify_almost(part, e, alpha)
    if args.n_ladder:
        ladder = _parse_ladder(args.n_ladder)
    else:
        ladder = [bounds_mod.invert_for_N(bound, 0.95)]
    rows = _rungs(e, bound, ladder, args, mode="almost", alpha=alpha, sample_from=part.base)
    rungs = [
        {"N": n_samples, "bound": bound_val, "p_hat": rep.p_hat, "wilson_lo": rep.wilson_lo,
         "wilson_hi": rep.wilson_hi, "sound": rep.sound}
        for n_samples, bound_val, rep in rows
    ]
    _dump_json(
        {
            "schema": SCHEMA,
            "alpha": alpha,
            "regions": part.region_count,
            "measure_A": part.base.measure,
            "certificate": {
                "coverage_ratio": cert.coverage_ratio,
                "complement_fraction": cert.complement_fraction,
                "verdict": cert.verdict,
            },
            "ladder": rungs,
        },
        args.out,
    )
    return 0


def _cmd_render(args) -> int:
    if args.labels:
        labels = partition_mod.read_labels(args.labels)
        svg = render_mod.render_labels(labels)
    elif args.mask:
        svg = render_mod.render_mask(read_mask(args.mask))
    else:
        raise CovergeoError("render needs --mask or --labels")
    _write_text(svg, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    p = _Parser(prog="covergeo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shape", help="rasterize a test shape to a mask file")
    sp.add_argument("--shape", required=True, choices=list(_SHAPES))
    sp.add_argument("--h", type=float, help="cell size (default 1)")
    sp.add_argument("--radius", type=float)
    sp.add_argument("--separation", type=float)
    sp.add_argument("--neck-halfwidth", type=float)
    sp.add_argument("--center-distance", type=float)
    sp.add_argument("--side", type=float)
    sp.add_argument("--hole-side", type=float)
    sp.add_argument("--hole-radius", type=float)
    sp.add_argument("--mask")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_shape)

    pp = sub.add_parser("partition", help="build and certify a cube partition")
    pp.add_argument("--mask", required=True)
    pp.add_argument("--delta", type=float, required=True)
    pp.add_argument("--eta", action="store_true", help="grow by the measured core distance")
    pp.add_argument("--out-prefix", required=True)
    pp.set_defaults(func=_cmd_partition)

    bp = sub.add_parser("bound", help="tabulate a coverage bound over sample counts")
    bp.add_argument("--kind", required=True, choices=list(_BOUNDS))
    for name, default in _BOUND_DEFAULTS.items():
        bp.add_argument(_flag(name), type=type(default), help=f"default {default!r}")
    bp.add_argument("--n-ladder", required=True)
    bp.add_argument("--format", choices=["json", "csv"], default="json")
    bp.add_argument("--out")
    bp.set_defaults(func=_cmd_bound)

    cp = sub.add_parser("cover", help="Monte Carlo coverage ladder against the bound")
    cp.add_argument("--mask", required=True)
    cp.add_argument("--delta", type=float, required=True)
    cp.add_argument("--n-ladder", required=True)
    cp.add_argument("--trials", type=int, required=True)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--out")
    cp.set_defaults(func=_cmd_cover)

    fp = sub.add_parser("flatnorm", help="minimize boundary-plus-mass at each lambda")
    fp.add_argument("--mask", required=True)
    fp.add_argument("--lambda-ladder", required=True)
    fp.add_argument("--out")
    fp.add_argument("--out-prefix", help="also write overlay SVGs with this prefix")
    fp.set_defaults(func=_cmd_flatnorm)

    qp = sub.add_parser("pipeline", help="regularize, partition, and verify almost-coverage")
    qp.add_argument("--mask", required=True)
    qp.add_argument("--lambda", dest="lam", type=float, required=True)
    qp.add_argument("--delta", type=float, required=True)
    qp.add_argument("--n-ladder", default="")
    qp.add_argument("--trials", type=int, default=200)
    qp.add_argument("--seed", type=int, default=0)
    qp.add_argument("--out")
    qp.set_defaults(func=_cmd_pipeline)

    rp = sub.add_parser("render", help="render a mask or label raster to SVG")
    rp.add_argument("--mask")
    rp.add_argument("--labels")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=_cmd_render)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        print(json.dumps(exc.fields()), file=sys.stderr)
        return 2
    except (CovergeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _builtin_hashes_found() -> bool:
    """Whether every builtin module ``hashlib`` falls back to, for the
    algorithms it guarantees, can be found when OpenSSL's ``_hashlib`` is
    not there."""
    import importlib.util

    if sys.version_info >= (3, 12):
        names = ("_md5", "_sha1", "_sha2", "_blake2", "_sha3")
    else:
        names = ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3")
    return all(importlib.util.find_spec(name) is not None for name in names)


def run() -> None:
    """Console entry point: run ``main`` and exit with its code.

    Before ``main``, the process blocks OpenSSL's ``_hashlib`` (a ``None``
    entry in ``sys.modules``) unless it is already loaded or a builtin
    hash module that ``hashlib`` would fall back to is missing.  The first
    Monte Carlo trial imports ``numpy.random``, whose ``secrets`` import
    pulls in ``hmac`` and with it ``_hashlib`` and ``libcrypto`` (about
    3.3 MiB of peak RSS).  The CLI hashes nothing and seeds every
    generator with an explicit key, so ``hashlib`` and ``hmac`` run on
    CPython's builtin hashes, and no artifact changes.

    ``gc.freeze()`` then moves every live object out of the collector's
    reach, so interpreter teardown skips the collection passes over them;
    a normal exit still runs atexit handlers.  ``main`` itself neither
    blocks nor freezes: in-process callers keep their OpenSSL hashes and
    their garbage collectable.
    """
    if "_hashlib" not in sys.modules and _builtin_hashes_found():
        sys.modules["_hashlib"] = None
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
