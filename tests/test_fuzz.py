"""Fuzzed readers and parsers: each call returns a valid result or raises CovergeoError.

The inputs are built from the pieces each format has (magic, size tokens,
body bytes, sidecar fields), some well formed and some mixed with arbitrary
bytes, so many examples get past the first check.  Example counts are small and the search is
derandomized, so the suite stays fast and its outcome fixed.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from covergeo.cli import _parse_floats  # noqa: E402
from covergeo.errors import CovergeoError  # noqa: E402
from covergeo.grid import GridSet, read_mask  # noqa: E402
from covergeo.partition import read_labels  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

sizes = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-3", "1e2", "0x4", "99999999999", "", "  ", "３"]),
    st.text(max_size=4),
)
numbers = st.one_of(
    st.sampled_from(["0.5", "nan", "inf", "-inf", "1e400", "0", "", "x"]),
    st.integers(-5, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def joined(parts):
    return parts.map(lambda values: ",".join(values))


@st.composite
def well_formed_bitmaps(draw) -> bytes:
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bits = np.array(draw(st.lists(st.booleans(), min_size=height * width,
                                  max_size=height * width))).reshape(height, width)
    if draw(st.booleans()):
        return f"P4\n{width} {height}\n".encode() + np.packbits(bits, axis=1).tobytes()
    rows = "\n".join(" ".join(str(int(b)) for b in row) for row in bits)
    return f"P1\n{width} {height}\n{rows}\n".encode()


@st.composite
def malformed_bitmaps(draw) -> bytes:
    magic = draw(st.sampled_from([b"P1", b"P4", b"P5", b"P", b""]))
    comment = draw(st.sampled_from([b"", b"\n# note", b"#"]))
    width, height = draw(sizes), draw(sizes)
    header = magic + comment + f"\n{width} {height}\n".encode("utf-8")
    if magic == b"P1" and draw(st.booleans()):
        body = " ".join(draw(st.lists(st.sampled_from("0101 2"), max_size=200))).encode()
    else:
        body = draw(st.binary(max_size=64))
    return header + body


@st.composite
def sidecars(draw) -> bytes | None:
    if draw(st.booleans()):
        return None
    # each field is left out or takes a plausible or a fuzzed value, so
    # many sidecars fit their bitmap and the frame values get exercised
    fields = {
        "schema": st.sampled_from(["covergeo/v1", "covergeo/v2"]),
        "n": st.one_of(st.just("2"), numbers),
        "h": numbers,
        "dims": joined(st.lists(numbers, max_size=4)),
        "origin": joined(st.one_of(st.lists(numbers, min_size=2, max_size=2),
                                   st.lists(numbers, max_size=4))),
    }
    lines = [f"{key}={draw(value)}" for key, value in fields.items() if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.text(max_size=12)))
    text = "\n".join(lines).encode("utf-8")
    return text + draw(st.sampled_from([b"", b"\n", b"\n", b"\xff"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(bitmap=st.one_of(well_formed_bitmaps(), malformed_bitmaps()), sidecar=sidecars())
def test_read_mask(workdir, bitmap, sidecar):
    path = workdir / "m.pbm"
    side = workdir / "m.hdr"
    path.write_bytes(bitmap)
    if sidecar is None:
        side.unlink(missing_ok=True)
    else:
        side.write_bytes(sidecar)
    try:
        s = read_mask(str(path))
    except CovergeoError:
        return
    assert isinstance(s, GridSet)
    assert s.ndim in (2, 3)
    assert 1e-100 <= s.h <= 1e100
    assert len(s.origin) == s.ndim and all(math.isfinite(c) for c in s.origin)


@st.composite
def graymaps(draw) -> bytes:
    magic = draw(st.sampled_from([b"P5", b"P4", b""]))
    comment = draw(st.sampled_from([b"", b"\n# note", b"#"]))
    width, height = draw(sizes), draw(sizes)
    depth = draw(st.sampled_from([b"65535", b"255", b""]))
    # a header on one line, or with each field on a line of its own
    gap = draw(st.sampled_from([b"\n", b" "]))
    header = magic + comment + gap.join([b"", f"{width} {height}".encode("utf-8"), depth, b""])
    ascii_digits = (width + height).isascii() and width.isdigit() and height.isdigit()
    if ascii_digits and int(width) * int(height) <= 144 and draw(st.booleans()):
        size = 2 * int(width) * int(height)
        body = draw(st.binary(min_size=size, max_size=size))
    else:
        body = draw(st.binary(max_size=64))
    return header + body


@st.composite
def well_formed_graymaps(draw) -> tuple[bytes, np.ndarray]:
    """A label raster with its header in any spelling the netpbm grammar
    allows, and the labels it holds."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    labels = np.array(draw(st.lists(st.integers(0, 0xFFFF), min_size=height * width,
                                    max_size=height * width))).reshape(height, width)
    gaps = [draw(st.sampled_from([b"\n", b" ", b"\t", b"\r\n", b"\n# note\n", b" #\n\n "]))
            for _ in range(3)]
    fields = [b"P5", str(width).encode(), str(height).encode(), b"65535"]
    header = b"".join(f + g for f, g in zip(fields, gaps)) + fields[-1]
    header += draw(st.sampled_from([b"\n", b" ", b"\t"]))  # the one byte that ends the header
    return header + labels.astype(">u2").tobytes(), labels


@FUZZ
@given(raster=well_formed_graymaps())
def test_read_labels_in_every_header_spelling(workdir, raster):
    data, labels = raster
    path = workdir / "w.pgm"
    path.write_bytes(data)
    assert np.array_equal(read_labels(str(path)), labels)


@FUZZ
@given(data=graymaps())
def test_read_labels(workdir, data):
    path = workdir / "l.pgm"
    path.write_bytes(data)
    try:
        labels = read_labels(str(path))
    except CovergeoError:
        return
    assert labels.ndim == 2 and labels.size > 0
    assert labels.dtype == np.int32
    assert 0 <= labels.min() and labels.max() <= 0xFFFF


@FUZZ
@given(text=st.one_of(joined(st.lists(numbers, max_size=5)), st.text(max_size=20)))
def test_parse_floats(text):
    try:
        values = _parse_floats(text, "ladder")
    except CovergeoError:
        return
    assert values and all(isinstance(v, float) for v in values)
    assert all(math.isfinite(v) and v > 0 for v in values)
