"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import covergeo
from covergeo import (
    almost_cover_pipeline,
    bound_regions,
    certify_good,
    cli,
    disk,
    flatnorm_minimize,
    good_partition,
    invert_for_N,
    lambda_threshold,
    minimizer_reach_check,
    partition_with_eta,
    read_labels,
)
from covergeo.partition import certificate_json, region_table, write_labels
from covergeo.grid import SCHEMA, GridSet, read_mask, write_mask
from covergeo.shapes import ball3
from covergeo import flatnorm
from covergeo import montecarlo as mc


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

    def test_from_mask_file_copies_the_mask(self, tmp_path, capsys):
        src = write_disk(tmp_path, 7.0, name="src.pbm", h=0.5)
        out = tmp_path / "copy.pbm"
        rc = cli.main(["shape", "--shape", "from-mask-file", "--mask", src, "--out", str(out)])
        assert rc == 0
        s = disk(7.0, 0.5)
        assert capsys.readouterr().out == f"wrote {out}: {s.count} cells, h = 0.5, dims = {s.dims}\n"
        for suffix in (".pbm", ".hdr"):
            assert (tmp_path / f"copy{suffix}").read_bytes() == (tmp_path / f"src{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "shape,given",
        [
            ("disk", ["--radius", "5"]),
            ("two-disks", ["--radius", "5", "--separation", "4"]),
            ("dumbbell", ["--radius", "5", "--neck-halfwidth", "1", "--center-distance", "20"]),
            ("cube", ["--side", "4"]),
            ("disk-minus-hole", ["--radius", "9", "--hole-side", "4"]),
            ("from-mask-file", ["--mask", None]),
        ],
    )
    @pytest.mark.parametrize(
        "bad,message",
        [
            (["--radius", "nan"], "radius must be finite and positive, got nan"),
            (["--radius", "-1"], "radius must be finite and positive, got -1.0"),
            (["--h", "-3"], "cell size must be finite and positive, got -3.0"),
        ],
        ids=["radius-nan", "radius-negative", "h-negative"],
    )
    def test_radius_and_h_checked_for_every_shape(
        self, tmp_path, capsys, shape, given, bad, message
    ):
        # a shape that reads neither flag (cube, from-mask-file) refuses a
        # bad value as every other shape does, and takes a good one of a
        # flag it reads
        given = [write_disk(tmp_path, 5.0) if g is None else g for g in given]
        out = tmp_path / "x.pbm"
        assert cli.main(["shape", "--shape", shape, *given, *bad, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        good = {"cube": ["--h", "1"], "from-mask-file": []}.get(shape, ["--radius", "5", "--h", "1"])
        assert cli.main(["shape", "--shape", shape, *given, *good, "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "shape,given,unread",
        [
            ("from-mask-file", ["--mask", None, "--h", "0.5"], "--h"),
            ("cube", ["--side", "4", "--radius", "3"], "--radius"),
            ("disk", ["--radius", "5", "--side", "2", "--mask", None], "--mask, --side"),
        ],
        ids=["from-mask-file-h", "cube-radius", "disk-side-and-mask"],
    )
    def test_valid_value_of_an_unread_flag_exits_1(self, tmp_path, capsys, shape, given, unread):
        # used to exit 0 and write the shape as if the flag were not there
        given = [write_disk(tmp_path, 5.0) if g is None else g for g in given]
        out = tmp_path / "x.pbm"
        assert cli.main(["shape", "--shape", shape, *given, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --shape {shape} does not read {unread}\n"
        assert not out.exists()

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

    def test_eta_artifacts_match_the_library(self, tmp_path, capsys):
        mask = write_disk(tmp_path, 16.0)
        prefix = str(tmp_path / "eta")
        rc = cli.main(["partition", "--mask", mask, "--delta", "4", "--eta",
                       "--out-prefix", prefix])
        assert rc == 0
        part = partition_with_eta(disk(16.0), 4.0)
        cert = certify_good(part)
        assert capsys.readouterr().out == (
            f"regions: {part.region_count}  ell: {part.ell}  "
            f"certificate: {'pass' if cert.verdict else 'fail'}\n"
        )
        expected = str(tmp_path / "expected.labels.pgm")
        write_labels(part, expected)
        assert open(prefix + ".labels.pgm", "rb").read() == open(expected, "rb").read()
        table = json.dumps(region_table(part), sort_keys=True, indent=2) + "\n"
        assert open(prefix + ".regions.json").read() == table
        assert open(prefix + ".certificate.json").read() == certificate_json(cert)

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

    def test_regions_table(self, tmp_path):
        out = tmp_path / "r.json"
        rc = cli.main(["bound", "--kind", "regions", "--region-measures", "10,20.5,30",
                       "--measure-e", "100", "--n-ladder", "5,40", "--out", str(out)])
        assert rc == 0
        b = bound_regions([10.0, 20.5, 30.0], 100.0)
        assert json.loads(out.read_text()) == {
            "schema": "covergeo/v1", "kind": b.kind, "table": [b.describe(5), b.describe(40)],
        }

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

    @pytest.mark.parametrize("argv", [
        ["--kind", "u-minus-a", "--measure-a", "inf"],
        ["--kind", "u-minus-a", "--measure-a", "nan"],
        ["--kind", "flatnorm", "--measure-s", "inf"],
        ["--kind", "flatnorm", "--measure-s", "nan"],
    ], ids=["removed-inf", "removed-nan", "residual-inf", "residual-nan"])
    def test_non_finite_measure_exits_1(self, capsys, argv):
        # an infinite measure used to reach the gate and exit 2 with a JSON
        # line holding Infinity; a NaN one failed later, on its coefficient
        rc = cli.main(["bound", "--m", "1", "--delta", "4", "--measure-e", "100",
                       "--measure-a", "100", "--n-ladder", "10", *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite and >= 0, got" in err

    @pytest.mark.parametrize("kind", ["reach", "u-minus-a", "flatnorm"])
    def test_overflowing_delta_exits_1(self, capsys, kind):
        rc = cli.main(["bound", "--kind", kind, "--m", "1", "--delta", "1e200",
                       "--measure-e", "100", "--measure-a", "1", "--n-ladder", "10"])
        assert rc == 1
        assert capsys.readouterr().err == "error: delta = 1e+200 is too large: delta^2 overflows\n"

    @pytest.mark.parametrize("kind,given,unread", [
        ("flatnorm", ["--measure-a", "100", "--n", "3", "--measure-e", "99"], "--measure-e, --n"),
        ("regions", ["--region-measures", "1,2", "--measure-e", "9", "--m", "7", "--delta", "3"],
         "--delta, --m"),
        ("reach", ["--region-measures", "1,2"], "--region-measures"),
        ("u-minus-a", ["--measure-s", "2"], "--measure-s"),
    ])
    def test_valid_value_of_an_unread_flag_exits_1(self, tmp_path, capsys, kind, given, unread):
        # used to exit 0 with a table that ignored the flag
        out = tmp_path / "b.json"
        rc = cli.main(["bound", "--kind", kind, *given, "--n-ladder", "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --kind {kind} does not read {unread}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,defaults", [
        ("reach", ["--m", "1", "--n", "2", "--delta", "1", "--measure-e", "1"]),
        ("u-minus-a", ["--m", "1", "--n", "2", "--delta", "1", "--measure-a", "0",
                       "--measure-e", "1"]),
        ("flatnorm", ["--m", "1", "--delta", "1", "--measure-s", "0"]),
    ])
    def test_flags_left_out_take_their_defaults(self, tmp_path, kind, defaults):
        bare, given = tmp_path / "bare.json", tmp_path / "given.json"
        # the flat-norm bound needs a positive measure of A, which is no default
        argv = ["bound", "--kind", kind, "--n-ladder", "1,10,100"]
        argv += ["--measure-a", "100"] if kind == "flatnorm" else []
        assert cli.main(argv + ["--out", str(bare)]) == 0
        assert cli.main(argv + defaults + ["--out", str(given)]) == 0
        assert bare.read_bytes() == given.read_bytes()

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

    # the rows `cover --mask disk64 --delta 8 --trials 100 --seed 3` writes
    # for these sample counts, each graded on its own before the ladder
    # carried covered trials from rung to rung
    _MID_ROWS = {
        "20": "20,0.000000000,0.000000,0.000000,0.036993",
        "40": "40,0.000000000,0.060000,0.027786,0.124768",
        "80": "80,0.000000000,0.810000,0.722212,0.874852",
        "160": "160,0.000000000,1.000000,0.963007,1.000000",
    }

    @pytest.mark.parametrize("ladder", ["20,40,80,160", "160,20,80,40,80"])
    @pytest.mark.parametrize("draws_nest", [True, False], ids=["nested", "prefix-check-fails"])
    def test_mid_probability_ladder_bytes(self, tmp_path, monkeypatch, ladder, draws_nest):
        # trials fail at low rungs and are graded again; unsorted, repeated
        # and un-nested ladders write the rows of rungs graded one by one
        if not draws_nest:
            monkeypatch.setattr(mc, "_draws_nest", lambda: False)
        mask = write_disk(tmp_path, 64.0)
        out = tmp_path / "l.csv"
        rc = cli.main(["cover", "--mask", mask, "--delta", "8", "--n-ladder", ladder,
                       "--trials", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = [self._MID_ROWS[n] for n in ladder.split(",")]
        assert out.read_text() == "\n".join(["N,bound,p_hat,wilson_lo,wilson_hi", *rows]) + "\n"

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

    def test_all_background_mask_exits_0(self, tmp_path):
        # an empty set has an empty hull: the cut has no cell nodes at all
        path = str(tmp_path / "blank.pbm")
        write_mask(GridSet(np.zeros((7, 9), dtype=bool), 1.0), path)
        out = tmp_path / "f.json"
        rc = cli.main(["flatnorm", "--mask", path, "--lambda-ladder", "0.5", "--out", str(out)])
        assert rc == 0
        (res,) = json.loads(out.read_text())["results"]
        assert res["sigma_cells"] == 0 and res["energy"] == 0.0

    def test_large_lambda_exits_0(self, tmp_path):
        mask = write_disk(tmp_path, 16.0)
        out = tmp_path / "f.json"
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "1e6", "--out", str(out)])
        assert rc == 0
        (res,) = json.loads(out.read_text())["results"]
        assert res["sym_diff"] == 0.0 and res["sigma_cells"] == disk(16.0).count

    def test_radii_once_per_distinct_minimizer(self, tmp_path, monkeypatch):
        # 0.5, 1 and 2 keep all of disk(12), 0.3 sheds four knife-edge cells
        # and 0.05 empties it: two distinct nonempty minimizers
        calls = []
        for name in ("opening_stability_radius", "closing_stability_radius"):
            radius = getattr(cli.flatnorm_mod, name)
            monkeypatch.setattr(cli.flatnorm_mod, name,
                                lambda s, name=name, radius=radius: calls.append(name) or radius(s))
        mask = write_disk(tmp_path, 12.0)
        out = tmp_path / "f.json"
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "0.5,0.3,1,0.05,2",
                       "--out", str(out)])
        assert rc == 0
        assert sorted(calls) == ["closing_stability_radius"] * 2 + ["opening_stability_radius"] * 2
        monkeypatch.undo()
        for entry in json.loads(out.read_text())["results"]:
            res = flatnorm_minimize(disk(12.0), entry["lambda"])
            if res.sigma.is_empty:
                assert "reach_check" not in entry
                continue
            rep = minimizer_reach_check(res)
            assert entry["reach_check"] == {
                "floor": rep.floor, "radius_sigma": rep.radius_sigma,
                "radius_complement": rep.radius_complement, "verdict": rep.verdict,
            }

    def test_one_cut_per_distinct_lambda(self, tmp_path, monkeypatch):
        # a repeated lambda reuses its minimizer: one cut each for 0.125 and
        # 0.3, and the same bytes as cutting every entry on its own
        mask = write_disk(tmp_path, 12.0)
        ladder = ["0.125", "0.3", "0.125", "0.125"]
        cuts = []
        solve = flatnorm.maximum_flow
        monkeypatch.setattr(flatnorm, "maximum_flow", lambda *args: cuts.append(args) or solve(*args))
        out, prefix = tmp_path / "f.json", str(tmp_path / "ov")
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", ",".join(ladder),
                       "--out", str(out), "--out-prefix", prefix])
        assert rc == 0
        assert len(cuts) == 2
        monkeypatch.undo()
        results = []
        for k, lam in enumerate(ladder):
            single, single_prefix = tmp_path / f"one{k}.json", str(tmp_path / f"one{k}")
            assert cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", lam,
                             "--out", str(single), "--out-prefix", single_prefix]) == 0
            results += json.loads(single.read_text())["results"]
            with open(f"{single_prefix}.lam{lam}.svg", "rb") as alone, open(f"{prefix}.lam{lam}.svg", "rb") as svg:
                assert svg.read() == alone.read()
        expected = tmp_path / "expected.json"
        cli._dump_json({"schema": SCHEMA, "results": results}, str(expected))
        assert out.read_bytes() == expected.read_bytes()

    def test_lambdas_sharing_an_overlay_name_exit_1(self, tmp_path, monkeypatch, capsys):
        # 0.3000001 and 0.3000004 are both spelled 0.3 by :g, so the second
        # overlay would overwrite the first; refused before any cut
        cuts = []
        monkeypatch.setattr(cli.flatnorm_mod, "flatnorm_minimize", lambda *a: cuts.append(a))
        mask = write_disk(tmp_path, 12.0)
        prefix = str(tmp_path / "ov")
        rc = cli.main(["flatnorm", "--mask", mask, "--lambda-ladder", "0.3000001,0.3000004,5",
                       "--out", str(tmp_path / "f.json"), "--out-prefix", prefix])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "0.3000001" in err and "0.3000004" in err and f"{prefix}.lam0.3.svg" in err
        assert cuts == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["disk.hdr", "disk.pbm"]

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

    def test_default_ladder_is_one_rung_at_p95(self, tmp_path):
        mask = write_punctured_minimizer(tmp_path)
        lam, delta = 2.5 / 64.0, 4.5
        out = tmp_path / "p.json"
        rc = cli.main(["pipeline", "--mask", str(mask), "--lambda", f"{lam}",
                       "--delta", f"{delta}", "--trials", "2", "--out", str(out)])
        assert rc == 0
        _, bound = almost_cover_pipeline(read_mask(str(mask)), lam, delta)
        n_samples = invert_for_N(bound, 0.95)
        (rung,) = json.loads(out.read_text())["ladder"]
        assert rung["N"] == n_samples
        assert rung["bound"] == bound.evaluate(n_samples) >= 0.95

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


def _reject_constant(name):
    raise AssertionError(f"the JSON line holds {name}, which is not strict JSON")


@pytest.mark.parametrize("argv,inequality", [
    (["partition", "--delta", "32.5"], "delta <= stability radius"),
    (["partition", "--delta", "2"], "delta >= 4h"),
    (["pipeline", "--lambda", "0.01", "--delta", "2"], "lambda > threshold"),
    (["pipeline", "--lambda", "0.06875", "--delta", "2"], "|S_lambda| < delta^2 / 2"),
    (["pipeline", "--lambda", "0.08", "--delta", "5"], "delta < 1/(5 lambda)"),
], ids=["stability", "resolution", "lambda", "residual", "delta-lambda"])
def test_violation_line_is_strict_json(tmp_path, capsys, argv, inequality):
    command, *rest = argv
    if command == "partition":
        rest += ["--out-prefix", str(tmp_path / "p")]
    rc = cli.main([command, "--mask", write_disk(tmp_path, 32.0), *rest])
    assert rc == 2
    message, fields_line = capsys.readouterr().err.splitlines()
    assert message.startswith("hypothesis violation: ")
    fields = json.loads(fields_line, parse_constant=_reject_constant)
    assert list(fields) == ["inequality", "lhs", "rhs", "margin"]
    assert fields["inequality"] == inequality
    assert fields["margin"] >= 0


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

    @pytest.mark.parametrize("header", [b"P5\n# made elsewhere\n3 2\n65535\n", b"P5 3 2 65535\n"],
                             ids=["comment-line", "one-line"])
    def test_label_header_in_the_netpbm_grammar(self, tmp_path, header):
        # both used to exit 1: the label reader took only P5\n{w} {h}\n65535\n
        body = np.array([[0, 1, 1], [2, 2, 0]], dtype=">u2").tobytes()
        canonical, other = tmp_path / "c.pgm", tmp_path / "o.pgm"
        canonical.write_bytes(b"P5\n3 2\n65535\n" + body)
        other.write_bytes(header + body)
        svgs = []
        for path in (canonical, other):
            out = tmp_path / f"{path.stem}.svg"
            assert cli.main(["render", "--labels", str(path), "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]

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

    @pytest.mark.parametrize(
        "flag,data",
        [("--mask", b"P4\n" + b"9" * 4301 + b" 16\n"),
         ("--labels", b"P5\n3 " + b"9" * 4301 + b"\n65535\n")],
        ids=["mask", "labels"],
    )
    def test_size_token_past_the_int_digit_limit_exits_1(self, tmp_path, capsys, flag, data):
        # used to end in int()'s "Exceeds the limit (4300 digits)" traceback
        path = tmp_path / "big"
        path.write_bytes(data)
        rc = cli.main(["render", flag, str(path), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not two positive integers" in err

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


def _with_h(tmp_path, s, h: str) -> str:
    """A mask file of ``s`` whose sidecar gives the cell size ``h``."""
    path = tmp_path / "m.pbm"
    write_mask(s, str(path))
    side = tmp_path / "m.hdr"
    side.write_text(side.read_text().replace("h=1.0\n", f"h={h}\n"))
    return str(path)


class TestCellSizeRange:
    """A frame's cell size lies in [1e-100, 1e100]; beyond it h squared or
    cubed, or a length in units of h, overflows or divides by zero."""

    COMMANDS = {
        "partition": ["--delta", "6", "--out-prefix", "p"],
        "cover": ["--delta", "6", "--n-ladder", "10", "--trials", "2", "--out", "c.csv"],
        "flatnorm": ["--lambda-ladder", "0.5", "--out", "f.json"],
        "pipeline": ["--lambda", "0.5", "--delta", "6", "--out", "q.json"],
        "render": ["--out", "m.svg"],
    }

    @pytest.mark.parametrize("h", ["1e-170", "1e+160", "1e+200"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_outside_exits_1(self, tmp_path, monkeypatch, capsys, command, h):
        # 1e-170 used to divide by zero in the erosion threshold, 1e160 and
        # 1e200 to report a false erosion-empty violation or overflow
        monkeypatch.chdir(tmp_path)
        mask = _with_h(tmp_path, disk(16.0), h)
        assert cli.main([command, "--mask", mask, *self.COMMANDS[command]]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cell size h = {float(h)} lies outside [1e-100, 1e+100]\n"

    @pytest.mark.parametrize("h", ["1e-100", "1e+100"])
    @pytest.mark.parametrize("shape,delta", [(disk(16.0), 6.0), (ball3(9.0), 4.0)], ids=["2d", "3d"])
    def test_both_ends_work(self, tmp_path, monkeypatch, capsys, shape, delta, h):
        monkeypatch.chdir(tmp_path)
        mask = _with_h(tmp_path, shape, h)
        argv = ["--mask", mask, "--delta", repr(delta * float(h))]
        assert cli.main(["partition", *argv, "--out-prefix", "p"]) == 0
        regions = good_partition(shape, delta).region_count
        assert capsys.readouterr().out.startswith(f"regions: {regions}  ")
        assert cli.main(["cover", *argv, "--n-ladder", "10", "--trials", "2"]) == 0


def run_cli_process(args, cwd):
    """(exit code, stdout, stderr) of ``python -m covergeo.cli`` in a fresh process."""
    src = os.path.dirname(os.path.dirname(covergeo.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "covergeo.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessExit:
    """A command run as its own process ends as ``main`` returns in process:
    the same exit code, the same stdout and stderr, the same artifact bytes."""

    @pytest.mark.parametrize("argv,code", [
        (["shape", "--shape", "disk", "--radius", "9", "--out", "d.pbm"], 0),
        (["partition", "--mask", "in.pbm", "--delta", "4", "--out-prefix", "p"], 0),
        (["flatnorm", "--mask", "in.pbm", "--lambda-ladder", "0.3,0.4", "--out", "f.json",
          "--out-prefix", "ov"], 0),
        (["render", "--out", "x.svg"], 1),
        (["partition", "--mask", "in.pbm", "--delta", "2", "--out-prefix", "p"], 2),
    ], ids=["shape", "partition", "flatnorm", "error", "violation"])
    def test_process_matches_in_process_main(self, tmp_path, capsys, monkeypatch, argv, code):
        here, there = tmp_path / "in_process", tmp_path / "process"
        for d in (here, there):
            d.mkdir()
            write_disk(d, 12.0, name="in.pbm")
        monkeypatch.chdir(here)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert run_cli_process(argv, there) == (code, captured.out, captured.err)
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in there.iterdir())
        for name in names:
            assert (here / name).read_bytes() == (there / name).read_bytes(), name

    def test_usage_error_exits_1(self, tmp_path):
        code, out, err = run_cli_process(["shape", "--shape", "nonsense", "--out", "x"], tmp_path)
        assert (code, out) == (1, "")
        assert "invalid choice: 'nonsense'" in err


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
    """No command pays for importing scipy.sparse: every cut runs the numpy
    preflow, however many nodes the cuts of a process hold.  And no command
    pays for the scipy.ndimage package."""

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

    def test_flatnorm_loads_no_scipy_csgraph_package(self, tmp_path):
        # the pipeline's one 12937-node cut loads no scipy module but the
        # distance kernel's extension
        mask = write_punctured_minimizer(tmp_path)
        modules = scipy_modules_after(
            "pipeline", "--mask", str(mask), "--lambda", f"{2.5 / 64.0}", "--delta", "4.5",
            "--n-ladder", "200", "--trials", "3", "--out", str(tmp_path / "p.json"),
        )
        assert modules == ["scipy.ndimage._nd_image"]
        # nor does one cut of more than 2^14 nodes, or a ladder of small
        # cuts that together hold more than 2^14
        large = write_disk(tmp_path, 74.0, "large.pbm")
        assert flatnorm._lattice_hull(read_mask(large)).sum() > 1 << 14
        modules = scipy_modules_after(
            "flatnorm", "--mask", large, "--lambda-ladder", "0.5", "--out", str(tmp_path / "l.json")
        )
        assert not [m for m in modules if m.startswith("scipy.sparse")]
        small = write_disk(tmp_path, 32.0, "small.pbm")
        hull = int(flatnorm._lattice_hull(read_mask(small)).sum())
        ladder = [f"{0.5 + 0.01 * k:g}" for k in range((1 << 14) // hull + 1)]
        assert len(ladder) * hull > 1 << 14
        modules = scipy_modules_after(
            "flatnorm", "--mask", small, "--lambda-ladder", ",".join(ladder),
            "--out", str(tmp_path / "s.json"),
        )
        assert not [m for m in modules if m.startswith("scipy.sparse")]
