"""Fuzzed readers, parsers and subcommands: each returns a valid result or
refuses its input the documented way.

The inputs are built from the pieces each format has (magic, size tokens,
body bytes, sidecar fields), some well formed and some mixed with arbitrary
bytes, so many examples get past the first check.  The ``shape``, ``bound``,
``partition`` and ``render`` subcommands run in process on flags drawn from
the parser's own actions, with values from a pool of edge cases and input
files written once per module.  Example counts are small and the search is
derandomized, so the suite stays fast and its outcome fixed.  A numpy
warning fails the test that raises it: in process it would not reach the
captured stderr, while a CLI process prints it before its ``error:`` line.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from covergeo import ball3, cli, disk, good_partition  # noqa: E402
from covergeo.cli import _parse_floats  # noqa: E402
from covergeo.errors import CovergeoError  # noqa: E402
from covergeo.grid import GridSet, read_mask, write_mask  # noqa: E402
from covergeo.partition import read_labels, write_labels  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


# values every numeric flag is tried with: signed zeros, negatives, the
# float extremes, the int64 and uint64 edges, text that is no number, and
# an integer beyond float range; sizes apart from these stay at most 8, so
# no frame near the cell cap is built
EDGE_VALUES = [
    "0", "-0.0", "-1", "-2.5", "1e-300", "1e308", "nan", "inf", "-inf",
    str(2**63), str(-(2**63)), str(2**63 - 1), *(str(2**64 + k) for k in (-1, 0, 1, 7)),
    "", "x", "1" + "0" * 400,
]
# flags whose value must be positive on success; every other number read
# must be at least 0
POSITIVE = {"radius", "h", "m", "delta", "measure_e", "n_ladder", "region_measures"}


def values(integral: bool) -> st.SearchStrategy[str]:
    """A flag value: an edge value, or in two draws of three a size."""
    sizes = st.integers(1, 8).map(str) if integral else st.sampled_from(
        ["0.25", "0.5", "1", "1.5", "2", "2.5", "3", "4.75", "6", "8"])
    return st.one_of(st.sampled_from(EDGE_VALUES), sizes, sizes)


@functools.cache
def subcommand_actions(command: str) -> list[argparse.Action]:
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in commands.choices[command]._actions if a.option_strings and a.dest != "help"]


@pytest.fixture(scope="module")
def masks(tmp_path_factory):
    """Mask paths for ``--mask``: two well-formed masks, a malformed file and
    a path that does not exist."""
    root = tmp_path_factory.mktemp("masks")
    write_mask(disk(3.0), str(root / "disk.pbm"))
    write_mask(disk(2.0, 0.5), str(root / "fine.pbm"))
    (root / "bad.pbm").write_bytes(b"P4\n3")
    return [str(root / name) for name in ("disk.pbm", "fine.pbm", "bad.pbm", "none.pbm")]


@st.composite
def invocations(draw, command: str, reads: dict, inputs: dict, out: str) -> list[str]:
    """An argv for ``command``: its selector (``--shape`` or ``--kind``) if it
    has one, then each other flag, the ones the selected choice reads (the
    choice None without a selector) and the required ones mostly given and
    the rest seldom.  A flag named in ``inputs`` takes one of its paths, and
    ``--out`` or ``--out-prefix`` takes ``out``."""
    actions = subcommand_actions(command)
    selector = next((a for a in actions if a.required and a.choices), None)
    argv, choice = [command], None
    if selector is not None:
        choice = draw(st.sampled_from(list(selector.choices)))
        argv.append(f"{selector.option_strings[0]}={choice}")
    for action in actions:
        if action is selector:
            continue
        wanted = action.required or action.dest in reads[choice]
        if draw(st.integers(0, 19)) >= (18 if wanted else 1):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.choices:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.dest in inputs:
            value = draw(st.sampled_from(inputs[action.dest]))
        elif action.dest in ("out", "out_prefix"):
            value = out
        elif action.type is None:
            integral = action.dest == "n_ladder"
            value = ",".join(draw(st.lists(values(integral), min_size=1, max_size=3)))
        else:
            value = draw(values(action.type is int))
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main`` in process; a usage error
    ends in SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def given_numbers(argv: list[str]) -> dict[str, list[float]]:
    """Every numeric value of ``argv``, by flag dest; lists split on commas."""
    actions = {a.option_strings[0]: a for a in subcommand_actions(argv[0])}
    found = {}
    for arg in argv[1:]:
        flag, _, value = arg.partition("=")
        action = actions[flag]
        if action.dest in ("n_ladder", "region_measures"):
            found[action.dest] = [float(t) for t in value.split(",") if t.strip()]
        elif action.type in (int, float):
            found[action.dest] = [float(action.type(value))]
    return found


def assert_contract(argv: list[str], code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert err.count("\n") == 1 and "error: " in err, (argv, err)
        return
    if code == 2:
        line = err.splitlines()[-1]
        fields = json.loads(line)
        assert "NaN" not in line and "Infinity" not in line, (argv, line)
        assert fields["margin"] >= 0, (argv, fields)
    # success, and a hypothesis checked, read only values within the contract
    for dest, numbers in given_numbers(argv).items():
        for v in numbers:
            assert math.isfinite(v) and (v > 0 if dest in POSITIVE else v >= 0), (argv, dest, v)


CLI_FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@CLI_FUZZ
@given(data=st.data())
def test_shape_contract(workdir, masks, data):
    out = workdir / "shape.pbm"
    out.unlink(missing_ok=True)
    reads = {kind: {name for group in flags for name in group} for kind, (flags, _) in cli._SHAPES.items()}
    argv = data.draw(invocations("shape", reads, {"mask": masks}, str(out)))
    code, stdout, err = run_main(argv)
    assert_contract(argv, code, stdout, err)
    if code == 0:
        assert not read_mask(str(out)).is_empty
        assert stdout.startswith(f"wrote {out}: ")


@CLI_FUZZ
@given(data=st.data())
def test_bound_contract(workdir, masks, data):
    out = workdir / "bound.txt"
    out.unlink(missing_ok=True)
    reads = {kind: set(flags) for kind, (flags, _) in cli._BOUNDS.items()}
    argv = data.draw(invocations("bound", reads, {"mask": masks}, str(out)))
    code, stdout, err = run_main(argv)
    assert_contract(argv, code, stdout, err)
    if code == 0:
        text = out.read_text() if out.exists() else stdout
        assert "NaN" not in text and "Infinity" not in text, (argv, text)
        if any(arg == "--format=csv" for arg in argv):
            assert text.startswith("N,bound\n")
        else:
            assert json.loads(text)["table"]


@pytest.fixture(scope="module")
def rasters(tmp_path_factory, masks):
    """Paths for ``--mask`` and ``--labels``: the ``masks``, plus two that
    partition at deltas from 4 to 8 (2d and 3d), an empty mask, one cell, a
    raster touching the rim with no sidecar and a mask at h = 1e-100; label
    rasters of a 2d and a 3d partition, an empty
    and a one-cell labeling, a malformed file, a mask and a missing path."""
    root = tmp_path_factory.mktemp("rasters")
    one = np.zeros((5, 5), dtype=bool)
    one[2, 2] = True
    for name, s in [("disk8.pbm", disk(8.0)), ("ball.pbm", ball3(6.0)),
                    ("empty.pbm", GridSet(np.zeros((4, 6), bool), 1.0)), ("one.pbm", GridSet(one, 1.0)),
                    ("tiny.pbm", disk(3e-100, 1e-100))]:
        write_mask(s, str(root / name))
    (root / "rim.pbm").write_bytes(b"P1\n3 2\n1 1 0\n0 1 1\n")
    for name, s in [("disk.pgm", disk(8.0)), ("ball.pgm", ball3(6.0))]:
        write_labels(good_partition(s, 4.0), str(root / name))
    for name, labels in [("zero.pgm", np.zeros((3, 4))), ("single.pgm", one.astype(int) * 7)]:
        header = f"P5\n{labels.shape[1]} {labels.shape[0]}\n65535\n".encode()
        (root / name).write_bytes(header + labels.astype(">u2").tobytes())
    (root / "bad.pgm").write_bytes(b"P5\n3")
    mask_names = ["disk8.pbm", "ball.pbm", "empty.pbm", "one.pbm", "tiny.pbm", "rim.pbm"]
    label_names = ["disk.pgm", "ball.pgm", "zero.pgm", "single.pgm", "bad.pgm", "none.pgm"]
    return {
        "mask": [str(root / name) for name in mask_names] + masks,
        "labels": [str(root / name) for name in label_names] + masks[:1],
    }


def assert_clean_text(argv: list[str], text: str) -> None:
    assert "NaN" not in text and "Infinity" not in text, (argv, text)


PARTITION_OUTPUTS = ("labels.pgm", "regions.json", "certificate.json")


@CLI_FUZZ
@given(data=st.data())
def test_partition_contract(workdir, rasters, data):
    prefix = workdir / "part"
    outputs = [workdir / f"part.{suffix}" for suffix in PARTITION_OUTPUTS]
    for path in outputs:
        path.unlink(missing_ok=True)
    argv = data.draw(invocations("partition", {None: {"eta"}}, rasters, str(prefix)))
    code, stdout, err = run_main(argv)
    assert_contract(argv, code, stdout, err)
    if code == 0:
        labels = read_labels(str(outputs[0]))
        regions = json.loads(outputs[1].read_text())
        assert labels.max() == len(regions["regions"]), argv
        for path in outputs[1:]:
            assert_clean_text(argv, path.read_text())
        assert json.loads(outputs[2].read_text())["verdict"] is True, argv
        assert stdout.startswith(f"regions: {len(regions['regions'])}  "), (argv, stdout)


@FUZZ
@given(data=st.data())
def test_render_contract(workdir, rasters, data):
    out = workdir / "render.svg"
    out.unlink(missing_ok=True)
    argv = data.draw(invocations("render", {None: {"mask", "labels"}}, rasters, str(out)))
    code, stdout, err = run_main(argv)
    assert_contract(argv, code, stdout, err)
    if code == 0:
        text = out.read_text()
        assert_clean_text(argv, text)
        assert ET.fromstring(text).tag.endswith("svg"), argv
        assert stdout == f"wrote {out}\n"
