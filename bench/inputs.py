"""Seeded input step that ``covergeo shape`` cannot do: the punctured minimizer.

    python bench/inputs.py puncture --mask disk64.pbm --lambda 0.0390625 \\
        --core 12 --seed 0 --out rough64.pbm

Minimizes the flat-norm objective on the mask at the given lambda, then
removes one 2x2 block of cells whose four cells all lie in the minimizer
eroded by ``--core``.  The seed picks the block, uniformly among all such
blocks, so every seed gives a puncture far inside the set: the minimizer of
the punctured set fills it back in and the pipeline's hypotheses hold by
construction.  The same seed gives the same bytes.  Needs ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def puncture(mask_path: str, lam: float, core: float, seed: int, out: str) -> tuple[int, int]:
    """Write the punctured minimizer to ``out``; returns the block's top-left cell."""
    from covergeo import erode, flatnorm_minimize, read_mask, write_mask

    sigma = flatnorm_minimize(read_mask(mask_path), lam).sigma
    inner = erode(sigma, core).mask
    whole_block = inner[:-1, :-1] & inner[1:, :-1] & inner[:-1, 1:] & inner[1:, 1:]
    corners = np.argwhere(whole_block)
    if len(corners) == 0:
        raise ValueError(f"no 2x2 block lies in the minimizer eroded by {core}")
    i, j = (int(c) for c in corners[np.random.default_rng(seed).integers(len(corners))])
    mask = sigma.mask.copy()
    mask[i : i + 2, j : j + 2] = False
    write_mask(sigma.with_mask(mask), out)
    return i, j


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="inputs.py")
    sub = parser.add_subparsers(dest="command", required=True)
    pp = sub.add_parser("puncture")
    pp.add_argument("--mask", required=True)
    pp.add_argument("--lambda", dest="lam", type=float, required=True)
    pp.add_argument("--core", type=float, required=True)
    pp.add_argument("--seed", type=int, required=True)
    pp.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    i, j = puncture(args.mask, args.lam, args.core, args.seed, args.out)
    print(f"wrote {args.out}: 2x2 puncture at cell ({i}, {j})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
