"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import covergeo
from covergeo import cli, disk, flatnorm_minimize, good_partition, lambda_threshold, read_labels
from covergeo.grid import read_mask, write_mask
from covergeo.shapes import ball3


def write_disk(tmp_path, radius, name="disk.pbm", h=1.0):
    path = tmp_path / name
    write_mask(disk(radius, h), str(path))
    return str(path)


class TestShape:
    def test_disk_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "d.pbm"
        rc = cli.main(["shape", "--shape", "disk", "--radius", "16", "--out", str(out)])
        assert rc == 0
        s = read_mask(str(out))
        assert s == disk(16.0)
        assert f"{s.count} cells" in capsys.readouterr().out

    def test_two_disks(self, tmp_path):
        out = tmp_path / "t.pbm"
        rc = cli.main(
            ["shape", "--shape", "two-disks", "--radius", "8",
             "--separation", "30", "--out", str(out)]
        )
        assert rc == 0
        assert read_mask(str(out)).count == 2 * disk(8.0).count

    def test_bad_radius_exits_1(self, tmp_path):
        rc = cli.main(
            ["shape", "--shape", "disk", "--radius", "-3",
             "--out", str(tmp_path / "x.pbm")]
        )
        assert rc == 1

    @pytest.mark.parametrize("radius,h", [("nan", "1"), ("inf", "1"), ("5", "0"), ("5", "nan")])
    def test_non_finite_shape_parameter_exits_1(self, tmp_path, capsys, radius, h):
        rc = cli.main(["shape", "--shape", "disk", "--radius", radius, "--h", h,
                       "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "shape,given,missing",
        [
            ("disk", [], "--radius"),
            ("two-disks", ["--radius", "5"], "--separation"),
            ("dumbbell", ["--radius", "5", "--center-distance", "20"], "--neck-halfwidth"),
            ("dumbbell", ["--radius", "5", "--neck-halfwidth", "1"], "--center-distance"),
            ("cube", [], "--side"),
            ("disk-minus-hole", ["--hole-side", "4"], "--radius"),
            ("disk-minus-hole", ["--radius", "9"], "--hole-side or --hole-radius"),
            ("from-mask-file", [], "--mask"),
        ],
    )
    def test_missing_shape_parameter_exits_1(self, tmp_path, capsys, shape, given, missing):
        rc = cli.main(["shape", "--shape", shape, *given, "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"needs {missing}" in err
        assert not (tmp_path / "x.pbm").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--shape", "cube", "--side", "inf"],
            ["--shape", "cube", "--side", "nan"],
            ["--shape", "two-disks", "--radius", "5", "--separation", "inf"],
            ["--shape", "dumbbell", "--radius", "5", "--neck-halfwidth", "nan",
             "--center-distance", "20"],
            ["--shape", "disk-minus-hole", "--radius", "9", "--hole-side", "inf"],
        ],
    )
    def test_non_finite_shape_size_exits_1(self, tmp_path, capsys, args):
        rc = cli.main(["shape", *args, "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--shape", "dumbbell", "--radius", "5", "--neck-halfwidth", "-1",
             "--center-distance", "1e9"],
            ["--shape", "disk", "--radius", "5", "--h", "1e-9"],
        ],
    )
    def test_oversized_frame_exits_1(self, tmp_path, capsys, args):
        # used to end in a numpy allocation traceback
        rc = cli.main(["shape", *args, "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "exceeds the limit of 16777216 cells" in err
        assert not (tmp_path / "x.pbm").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--shape", "cube", "--side", "-20"],
            ["--shape", "two-disks", "--radius", "5", "--separation", "-20"],
        ],
    )
    def test_negative_extent_exits_1(self, tmp_path, capsys, args):
        # used to end in an IndexError traceback from an empty frame
        rc = cli.main(["shape", *args, "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "negative extent" in err

    @pytest.mark.parametrize(
        "args,name",
        [
            (["--shape", "disk-minus-hole", "--radius", "5", "--hole-side", "-3"], "hole_w"),
            (["--shape", "disk-minus-hole", "--radius", "5", "--hole-radius", "-2"], "hole_radius"),
            (["--shape", "dumbbell", "--radius", "5", "--neck-halfwidth", "-1",
              "--center-distance", "20"], "neck_halfwidth"),
            (["--shape", "two-disks", "--radius", "5", "--separation", "-4"], "separation"),
        ],
    )
    def test_negative_feature_size_exits_1(self, tmp_path, capsys, args, name):
        # used to exit 0 with the hole or neck silently dropped
        rc = cli.main(["shape", *args, "--out", str(tmp_path / "x.pbm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{name} must be nonnegative" in err
        assert not (tmp_path / "x.pbm").exists()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["shape", "--shape", "nonsense", "--out", "x"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1


class TestPartition:
    def test_artifacts(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        prefix = str(tmp_path / "part")
        rc = cli.main(["partition", "--mask", mask, "--delta", "8", "--out-prefix", prefix])
        assert rc == 0
        assert "certificate: pass" in capsys.readouterr().out

        labels = read_labels(prefix + ".labels.pgm")
        expected = good_partition(disk(32.0), 8.0)
        assert np.array_equal(labels, expected.labels)

        table = json.loads(open(prefix + ".regions.json").read())
        assert table["region_count"] == expected.region_count
        assert len(table["regions"]) == expected.region_count

        cert = json.loads(open(prefix + ".certificate.json").read())
        assert cert["verdict"] is True

    def test_deterministic_bytes(self, tmp_path):
        mask = write_disk(tmp_path, 24.0)
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (pa, pb):
            assert cli.main(
                ["partition", "--mask", mask, "--delta", "6", "--out-prefix", prefix]
            ) == 0
        for suffix in (".labels.pgm", ".regions.json", ".certificate.json"):
            assert open(pa + suffix, "rb").read() == open(pb + suffix, "rb").read()

    def test_infeasible_exits_2(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(
            ["partition", "--mask", mask, "--delta", "32.5",
             "--out-prefix", str(tmp_path / "p")]
        )
        assert rc == 2
        assert "hypothesis violation" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["truncated-p4", "non-integer-header", "3d-dims-mismatch"])
    def test_malformed_mask_exits_1(self, tmp_path, capsys, case):
        path = tmp_path / "bad.pbm"
        if case == "truncated-p4":
            path.write_bytes(b"P4\n16 16\n" + b"\x00" * 20)
        elif case == "non-integer-header":
            path.write_bytes(b"P4\nab 16\n" + b"\x00" * 32)
        else:
            write_mask(ball3(3.0), str(path))
            side = tmp_path / "bad.hdr"
            side.write_text(side.read_text().replace("dims=11,11,11", "dims=11,10,11"))
        rc = cli.main(["partition", "--mask", str(path), "--delta", "6",
                       "--out-prefix", str(tmp_path / "p")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestBound:
    def test_json_table(self, tmp_path):
        out = tmp_path / "b.json"
        rc = cli.main(
            ["bound", "--kind", "reach", "--m", "88", "--n", "2", "--delta", "8",
             "--measure-e", "3209", "--n-ladder", "519,750,911", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["schema"] == "covergeo/v1"
        assert doc["kind"] == "reach"
        assert [row["N"] for row in doc["table"]] == [519, 750, 911]
        assert doc["table"][0]["value"] >= 0.5
        assert doc["table"][2]["value"] >= 0.99
        assert {"kind", "N", "value", "raw", "underflow"} <= doc["table"][0].keys()

    def test_csv_format(self, capsys):
        rc = cli.main(
            ["bound", "--kind", "reach", "--m", "10", "--n", "2", "--delta", "4",
             "--measure-e", "500", "--n-ladder", "100,200", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,bound"
        assert len(lines) == 3
        assert lines[1].startswith("100,")

    def test_bad_ladder_exits_1(self, capsys):
        rc = cli.main(
            ["bound", "--kind", "reach", "--n-ladder", "10,zap"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("measures", ["10,abc", "10,nan", "10,inf", "10,-2", "10,0", ""])
    def test_bad_region_measures_exit_1(self, capsys, measures):
        rc = cli.main(["bound", "--kind", "regions", "--region-measures", measures,
                       "--measure-e", "100", "--n-ladder", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_parameters_exit_1(self, capsys):
        rc = cli.main(
            ["bound", "--kind", "reach", "--m", "0", "--n-ladder", "10"]
        )
        assert rc == 1

    def test_deterministic_bytes(self, tmp_path):
        argv = ["bound", "--kind", "flatnorm", "--m", "40", "--delta", "4.5",
                "--measure-s", "2.0", "--measure-a", "1000", "--n-ladder", "100,400"]
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(pa)]) == 0
        assert cli.main(argv + ["--out", str(pb)]) == 0
        assert pa.read_bytes() == pb.read_bytes()


class TestCover:
    def test_ladder_runs_and_is_deterministic(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 16.0)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["cover", "--mask", mask, "--delta", "8", "--n-ladder", "50,100",
                "--trials", "5", "--seed", "7"]
        assert cli.main(argv + ["--out", str(pa)]) == 0
        assert "soundness: pass" in capsys.readouterr().out
        assert cli.main(argv + ["--out", str(pb)]) == 0
        assert pa.read_bytes() == pb.read_bytes()
        lines = pa.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per rung

    def test_mid_probability_ladder(self, tmp_path):
        # p_hat climbs from 0 to 1 over these rungs, so the CSV pins the
        # coverage verdict where it is neither always nor never true
        mask = write_disk(tmp_path, 64.0)
        out = tmp_path / "l.csv"
        rc = cli.main(["cover", "--mask", mask, "--delta", "8", "--n-ladder", "20,40,80,160",
                       "--trials", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(n, p_hat) for n, _, p_hat, _, _ in rows] == [
            ("20", "0.000000"), ("40", "0.060000"), ("80", "0.810000"), ("160", "1.000000"),
        ]

    def test_zero_trials_exits_1(self, tmp_path):
        mask = write_disk(tmp_path, 12.0)
        rc = cli.main(["cover", "--mask", mask, "--delta", "6",
                       "--n-ladder", "10", "--trials", "0"])
        assert rc == 1

    def test_oversized_rung_exits_1(self, tmp_path, capsys):
        # refused before the draw is allocated
        mask = write_disk(tmp_path, 12.0)
        rc = cli.main(["cover", "--mask", mask, "--delta", "6",
                       "--n-ladder", str(2**24 + 1), "--trials", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N = 16777217" in err


class TestFlatnorm:
    def test_ladder_json(self, tmp_path):
        mask = write_disk(tmp_path, 16.0)
        out = tmp_path / "f.json"
        rc = cli.main(["flatnorm", "--mask", mask,
                       "--lambda-ladder", "0.05,0.2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(open(out).read())
        lo, hi = doc["results"]
        assert lo["lambda"] == 0.05
        assert lo["sigma_cells"] == 0  # below the transition: empty wins
        assert "reach_check" not in lo
        assert hi["sigma_cells"] > 700
        assert hi["reach_check"]["verdict"] is True
        assert hi["energy"] == pytest.approx(
            hi["perimeter"] + 0.2 * hi["sym_diff"], rel=1e-12
        )

    @pytest.mark.parametrize("ladder", ["0.5,abc", "0.5,nan", "0.5,inf", "0.5,-1", "0", ","])
    def test_bad_lambda_ladder_exits_1(self, tmp_path, capsys, ladder):
        mask = write_disk(tmp_path, 8.0)
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", ladder])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_large_lambda_exits_0(self, tmp_path):
        mask = write_disk(tmp_path, 16.0)
        out = tmp_path / "f.json"
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "1e6", "--out", str(out)])
        assert rc == 0
        (res,) = json.loads(out.read_text())["results"]
        assert res["sym_diff"] == 0.0 and res["sigma_cells"] == disk(16.0).count

    def test_overlay_svgs(self, tmp_path):
        mask = write_disk(tmp_path, 12.0)
        prefix = str(tmp_path / "ov")
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "0.3",
                       "--out", str(tmp_path / "f.json"), "--out-prefix", prefix])
        assert rc == 0
        svg = open(prefix + ".lam0.3.svg").read()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")


def write_punctured_minimizer(tmp_path):
    """The lambda = 2.5/64 minimizer of disk(64) with a 2x2 hole at its centre."""
    s0 = flatnorm_minimize(disk(64.0), 2.5 / 64.0).sigma
    c = s0.dims[0] // 2
    m = s0.mask.copy()
    m[c : c + 2, c : c + 2] = False
    mask = tmp_path / "punctured.pbm"
    write_mask(s0.with_mask(m), str(mask))
    return mask


class TestPipeline:
    def test_end_to_end(self, tmp_path):
        mask = write_punctured_minimizer(tmp_path)
        out = tmp_path / "p.json"
        rc = cli.main(
            ["pipeline", "--mask", str(mask), "--lambda", f"{2.5 / 64.0}",
             "--delta", "4.5", "--n-ladder", "200", "--trials", "3",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["schema"] == "covergeo/v1"
        assert doc["regions"] == 1289
        assert doc["measure_A"] == 12829.0
        assert doc["certificate"]["verdict"] is True
        assert doc["ladder"][0]["N"] == 200
        assert 0.0 <= doc["ladder"][0]["bound"] <= 1.0

    def test_lambda_gate_exits_2(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.01", "--delta", "2"])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err

    def test_lambda_gate_fields_on_stderr(self, tmp_path, capsys):
        # the message line is unchanged; the next line holds its fields
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.01", "--delta", "2"])
        assert rc == 2
        message, fields_line = capsys.readouterr().err.splitlines()
        thr = lambda_threshold(disk(32.0))
        assert message == f"hypothesis violation: lambda = 0.01 <= transition threshold = {thr:.6g}"
        fields = json.loads(fields_line)
        assert list(fields) == ["inequality", "lhs", "rhs", "margin"]
        assert fields["inequality"] == "lambda > threshold"
        assert (fields["lhs"], fields["rhs"]) == (0.01, thr)
        assert fields["margin"] == thr - 0.01 > 0

    def test_residual_gate_exits_2(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.06875", "--delta", "2"])
        assert rc == 2
        assert "hypothesis violation" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-3"])
    def test_bad_delta_exits_1(self, tmp_path, capsys, delta):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.2", "--delta", delta])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta must be finite and positive" in err

    def test_lambda_past_integer_capacities_exits_1(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "1e9", "--delta", "1e-10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2^26" in err and "rim" not in err

    def test_zero_trials_exits_1_before_the_cut(self, tmp_path, capsys, monkeypatch):
        def no_cut(*args, **kwargs):
            raise AssertionError("the flat-norm cut ran")

        monkeypatch.setattr(cli.flatnorm_mod, "almost_cover_pipeline", no_cut)
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.2", "--delta", "2",
                       "--trials", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "need at least one trial, got 0" in err

    def test_delta_lambda_gate_exits_2(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 32.0)
        rc = cli.main(["pipeline", "--mask", mask, "--lambda", "0.08", "--delta", "5"])
        assert rc == 2
        assert "1/(5 lambda)" in capsys.readouterr().err

    def test_certifies_almost_coverage_once(self, tmp_path, monkeypatch):
        calls = []
        certify = cli.partition_mod.certify_almost

        def counted(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(cli.partition_mod, "certify_almost", counted)
        # a module that imported the name directly would miss the patch above
        monkeypatch.setattr(cli.flatnorm_mod, "certify_almost", counted, raising=False)
        mask = write_punctured_minimizer(tmp_path)
        rc = cli.main(["pipeline", "--mask", str(mask), "--lambda", f"{2.5 / 64.0}",
                       "--delta", "4.5", "--n-ladder", "20", "--trials", "1",
                       "--out", str(tmp_path / "p.json")])
        assert rc == 0
        assert len(calls) == 1


class TestRender:
    def test_mask_to_svg(self, tmp_path):
        mask = write_disk(tmp_path, 10.0)
        out = tmp_path / "m.svg"
        rc = cli.main(["render", "--mask", mask, "--out", str(out)])
        assert rc == 0
        ET.fromstring(out.read_text())

    def test_labels_to_svg(self, tmp_path):
        mask = write_disk(tmp_path, 24.0)
        prefix = str(tmp_path / "p")
        cli.main(["partition", "--mask", mask, "--delta", "6", "--out-prefix", prefix])
        out = tmp_path / "l.svg"
        rc = cli.main(["render", "--labels", prefix + ".labels.pgm", "--out", str(out)])
        assert rc == 0
        ET.fromstring(out.read_text())

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = cli.main(["render", "--mask", str(tmp_path / "nope.pbm"),
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_label_size_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\nx 3\n65535\n")
        rc = cli.main(["render", "--labels", str(path), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_no_input_exits_1(self, tmp_path, capsys):
        rc = cli.main(["render", "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_3d_mask_exits_1(self, tmp_path, capsys):
        mask = tmp_path / "ball.pbm"
        write_mask(ball3(4.0), str(mask))
        out = tmp_path / "b.svg"
        rc = cli.main(["render", "--mask", str(mask), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2d-only" in err
        assert "Traceback" not in err
        assert not out.exists()


def scipy_modules_after(*args):
    """Names of the scipy modules loaded by a fresh ``covergeo.cli.main(args)``.

    With no arguments the process only imports ``covergeo.cli``.
    """
    code = (
        "import json, sys\n"
        "import covergeo.cli\n"
        "args = sys.argv[1:]\n"
        "rc = covergeo.cli.main(args) if args else 0\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = os.path.dirname(os.path.dirname(covergeo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return modules


def ndimage_package_modules(modules):
    """The ``scipy.ndimage`` package and its submodules, except the compiled
    ``_nd_image`` extension that the distance kernel loads by itself."""
    return [m for m in modules
            if m.split(".")[:2] == ["scipy", "ndimage"] and m != "scipy.ndimage._nd_image"]


class TestImportFootprint:
    """Commands that never cut a graph do not pay for importing scipy.sparse,
    and no command pays for the scipy.ndimage package."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after() == []

    def test_render_labels_loads_no_scipy(self, tmp_path):
        mask = write_disk(tmp_path, 12.0)
        prefix = str(tmp_path / "p")
        assert cli.main(["partition", "--mask", mask, "--delta", "4", "--out-prefix", prefix]) == 0
        out = str(tmp_path / "l.svg")
        assert scipy_modules_after("render", "--labels", prefix + ".labels.pgm", "--out", out) == []

    def test_partition_loads_no_scipy_sparse(self, tmp_path):
        mask = write_disk(tmp_path, 12.0)
        modules = scipy_modules_after(
            "partition", "--mask", mask, "--delta", "4", "--out-prefix", str(tmp_path / "p")
        )
        # the distance kernel ran on the extension alone
        assert "scipy.ndimage._nd_image" in modules
        assert ndimage_package_modules(modules) == []
        assert not [m for m in modules if m.startswith("scipy.sparse")]

    def test_cover_loads_no_scipy_ndimage_package(self, tmp_path):
        mask = write_disk(tmp_path, 12.0)
        modules = scipy_modules_after(
            "cover", "--mask", mask, "--delta", "4", "--n-ladder", "20,40",
            "--trials", "3", "--seed", "1", "--out", str(tmp_path / "c.csv"),
        )
        assert "scipy.ndimage._nd_image" in modules
        assert ndimage_package_modules(modules) == []
        assert not [m for m in modules if m.startswith("scipy.sparse")]
