"""Static SVG renders of masks, partitions, minimizer overlays and samples.

Everything here is a pure function of its inputs: colors come from a fixed
golden-angle hue walk, floats are printed with a fixed format, and cells are
emitted in row-major order, so re-rendering the same objects yields
byte-identical documents.  Output is plain SVG 1.1 with no external assets.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .errors import CovergeoError, DimensionError
from .grid import GridSet

__all__ = [
    "render_mask",
    "render_labels",
    "render_overlay",
    "render_samples",
]

_CELL_PX = 6.0
_GOLDEN_ANGLE = 0.6180339887498949


def _header(width_cells: int, height_cells: int) -> list[str]:
    w = width_cells * _CELL_PX
    h = height_cells * _CELL_PX
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="#ffffff"/>',
    ]


def _row_runs(row: np.ndarray):
    """Yield (start, length, value) runs of equal nonzero values."""
    bounds = np.concatenate(([0], np.flatnonzero(row[1:] != row[:-1]) + 1, [len(row)]))
    for j, k in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if row[j] != 0:
            yield j, k - j, row[j]


def _rects(values: np.ndarray, color_of) -> list[str]:
    if values.ndim != 2:
        raise DimensionError(f"unsupported dimension: renders are 2d-only, got ndim={values.ndim}")
    out = []
    for i in range(values.shape[0]):
        for j, length, v in _row_runs(values[i]):
            out.append(
                f'<rect x="{j * _CELL_PX:.1f}" y="{i * _CELL_PX:.1f}" '
                f'width="{length * _CELL_PX:.1f}" height="{_CELL_PX:.1f}" '
                f'fill="{color_of(v)}"/>'
            )
    return out


def _label_color(label: int) -> str:
    hue = (label * _GOLDEN_ANGLE) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.88)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_mask(s: GridSet, fill: str = "#4477aa") -> str:
    """One-color raster of a 2d grid set."""
    body = _header(s.dims[1], s.dims[0])
    body += _rects(s.mask.astype(np.int32), lambda _v: fill)
    body.append("</svg>")
    return "\n".join(body) + "\n"


def render_labels(labels: np.ndarray) -> str:
    """Color-mapped render of a partition labeling (0 = background)."""
    body = _header(labels.shape[1], labels.shape[0])
    body += _rects(labels, lambda v: _label_color(int(v)))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def render_overlay(e: GridSet, sigma: GridSet) -> str:
    """Input set vs minimizer: classified into kept / removed / added cells."""
    if not e.same_frame(sigma):
        raise CovergeoError(
            f"overlay needs one grid frame: set has dims {e.dims}, h {e.h}, origin "
            f"{e.origin}; minimizer has dims {sigma.dims}, h {sigma.h}, origin {sigma.origin}"
        )
    both = e.mask & sigma.mask
    removed = e.mask & ~sigma.mask
    added = sigma.mask & ~e.mask
    coded = np.zeros(e.dims, dtype=np.int32)
    coded[both] = 1
    coded[removed] = 2
    coded[added] = 3
    palette = {1: "#99bbdd", 2: "#cc4433", 3: "#33aa55"}
    body = _header(e.dims[1], e.dims[0])
    body += _rects(coded, lambda v: palette[int(v)])
    body.append("</svg>")
    return "\n".join(body) + "\n"


def render_samples(e: GridSet, points: np.ndarray, r: float) -> str:
    """Set cells with sample points and their coverage disks."""
    body = _header(e.dims[1], e.dims[0])
    body += _rects(e.mask.astype(np.int32), lambda _v: "#bbccdd")
    org = np.asarray(e.origin, dtype=np.float64)
    scale = _CELL_PX / e.h
    rad = r * scale
    for p in points:
        # physical (row, col) -> pixel (x, y)
        y = (float(p[0]) - org[0]) * scale
        x = (float(p[1]) - org[1]) * scale
        body.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{rad:.2f}" '
            f'fill="#3366aa" fill-opacity="0.08" stroke="#3366aa" '
            f'stroke-opacity="0.35" stroke-width="0.5"/>'
        )
    for p in points:
        y = (float(p[0]) - org[0]) * scale
        x = (float(p[1]) - org[1]) * scale
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="#113355"/>')
    body.append("</svg>")
    return "\n".join(body) + "\n"
