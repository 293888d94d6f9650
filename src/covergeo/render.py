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


def _document(shape: tuple[int, int], elements: list[str]) -> str:
    """The one SVG document: a white page of ``shape`` (rows, columns) cells
    holding ``elements``, one per line."""
    h, w = (f"{k * _CELL_PX:.0f}" for k in shape)
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
        *elements,
        "</svg>\n",
    ])


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row, start, length, value) of every run of equal nonzero values, row-major.

    One table serves the whole raster: a run starts wherever the value
    changes or a row begins, and background (0) runs are dropped.
    """
    if values.ndim != 2:
        raise DimensionError(f"unsupported dimension: renders are 2d-only, got ndim={values.ndim}")
    width = max(values.shape[1], 1)  # a raster with no columns has no runs
    flat = values.ravel()
    begins = np.ones(flat.size, dtype=bool)
    begins[1:] = flat[1:] != flat[:-1]
    begins[::width] = True
    first = np.flatnonzero(begins)
    length = np.diff(first, append=flat.size)
    value = flat[first]
    painted = value != 0
    row, start = np.divmod(first[painted], width)
    return row, start, length[painted], value[painted]


def _rects(values: np.ndarray, color_of) -> list[str]:
    """One ``<rect>`` per run of ``values``; ``color_of`` sees each distinct value
    once, and each pixel offset is formatted once."""
    row, start, length, value = _runs(values)
    distinct, which = np.unique(value, return_inverse=True)
    fills = [color_of(v) for v in distinct.tolist()]
    px = [f"{k * _CELL_PX:.1f}" for k in range(max(values.shape) + 1)]
    rect = f'<rect x="%s" y="%s" width="%s" height="{_CELL_PX:.1f}" fill="%s"/>'
    return list(map(rect.__mod__, zip(
        map(px.__getitem__, start.tolist()),
        map(px.__getitem__, row.tolist()),
        map(px.__getitem__, length.tolist()),
        map(fills.__getitem__, which.tolist()),
    )))


def _label_color(label: int) -> str:
    hue = (label * _GOLDEN_ANGLE) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.88)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_mask(s: GridSet, fill: str = "#4477aa") -> str:
    """One-color raster of a 2d grid set."""
    return _document(s.dims, _rects(s.mask.astype(np.int32), lambda _v: fill))


def render_labels(labels: np.ndarray) -> str:
    """Color-mapped render of a partition labeling (0 = background)."""
    return _document(labels.shape, _rects(labels, _label_color))


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
    return _document(e.dims, _rects(coded, palette.__getitem__))


def render_samples(e: GridSet, points: np.ndarray, r: float) -> str:
    """Set cells with sample points and their coverage disks."""
    body = _rects(e.mask.astype(np.int32), lambda _v: "#bbccdd")
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
    return _document(e.dims, body)
