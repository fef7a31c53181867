import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pulsecal as pc
from pulsecal import cli
from pulsecal.cli import _probe_writable, main


@pytest.fixture(scope="module")
def landscape_file(tmp_path_factory):
    """CLI-produced landscape reused by the read-only command tests."""
    path = tmp_path_factory.mktemp("cli") / "corners.json"
    code = main([
        "calibrate", "--family", "single-qubit", "--granularity", "1",
        "--rounds", "1", "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    return path


# -- calibrate ----------------------------------------------------------------

def test_calibrate_writes_landscape_and_prints_log(tmp_path, capsys):
    out = tmp_path / "land.json"
    code = main([
        "calibrate", "--family", "single-qubit", "--granularity", "1",
        "--rounds", "1", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "round" in text and "mean_infid" in text
    assert f"saved 8 references to {out}" in text
    land = pc.load_landscape(out)
    assert len(land.references) == 8
    assert [rec.round for rec in land.log] == [0, 1]


def test_calibrate_reruns_are_byte_identical(landscape_file, tmp_path):
    again = tmp_path / "again.json"
    code = main([
        "calibrate", "--family", "single-qubit", "--granularity", "1",
        "--rounds", "1", "--seed", "3", "--out", str(again),
    ])
    assert code == 0
    assert again.read_bytes() == landscape_file.read_bytes()


def test_calibrate_rejects_unwritable_output(capsys):
    code = main([
        "calibrate", "--family", "single-qubit", "--granularity", "1",
        "--out", "/nonexistent-dir/land.json",
    ])
    assert code == 4
    assert "not writable" in capsys.readouterr().err


def test_calibrate_rejects_bad_granularity(tmp_path, capsys):
    code = main([
        "calibrate", "--family", "single-qubit", "--granularity", "0",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "granularity" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf"])
@pytest.mark.parametrize("command", ["calibrate", "sweep"])
def test_non_finite_lambda_is_a_bad_argument(tmp_path, command, lam):
    args = {
        "calibrate": ["--granularity", "1/2", "--out", "l.json"],
        "sweep": ["--granularities", "1/2", "--test-granularity", "1/4", "--csv", "s.csv"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(pc.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "pulsecal.cli", command, "--family", "single-qubit",
         "--lambda", lam, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: lambda must be finite and non-negative")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("granularity", ["1/3", "1/5"])
def test_chamber_spacing_that_misses_a_corner_is_a_bad_argument(tmp_path, capsys, monkeypatch,
                                                                granularity):
    monkeypatch.setattr(cli, "calibrate", _never_called)
    out = tmp_path / "land.json"
    code = main(["calibrate", "--family", "weyl-chamber", "--granularity", granularity,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: granularity {granularity} misses the corner (1/2, 1/2, 0) "
                          "of family 'weyl-chamber'")
    assert not out.exists()


def test_chamber_sweep_refuses_a_bad_spacing_before_it_calibrates(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", _never_called)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "weyl-chamber", "--granularities", "1/2,1/3",
                 "--test-granularity", "1/6", "--csv", str(out)])
    assert code == 2
    assert "granularity 1/3 misses the corner (1/2, 1/2, 0)" in capsys.readouterr().err
    assert not out.exists()


def _never_called(*args, **kwargs):
    raise AssertionError("called before the arguments were checked")


def test_unknown_family_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "calibrate", "--family", "three-qubit", "--granularity", "1",
            "--out", str(tmp_path / "x.json"),
        ])
    assert exc.value.code == 2


_CALIBRATE = ["calibrate", "--family", "single-qubit", "--granularity", "1/2", "--out"]
_SWEEP = ["sweep", "--family", "single-qubit", "--granularities", "1/2",
          "--test-granularity", "1/4", "--csv"]


@pytest.mark.parametrize("command, bad", [
    (_CALIBRATE, ["--segments", "0"]),
    (_CALIBRATE, ["--max-iter", "0"]),
    (_CALIBRATE, ["--lambda", "-1"]),
    (_CALIBRATE, ["--rounds", "-1"]),
    (_CALIBRATE, ["--granularity", "0"]),
    (_SWEEP, ["--segments", "0"]),
    (_SWEEP, ["--max-iter", "0"]),
    (_SWEEP, ["--lambda", "-1"]),
    (_SWEEP, ["--max-rounds", "-1"]),
    (_SWEEP, ["--granularities", "1/2,0"]),
    (_SWEEP, ["--test-granularity", "x"]),
], ids=lambda v: v[0])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_bad_argument_leaves_the_output_path_as_it_was(tmp_path, capsys, command, bad, existing):
    out = tmp_path / "out"
    if existing:
        out.write_bytes(b"earlier output\n")
    # A repeated flag overrides the good value given before it.
    code = main([*command, str(out), *bad])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    if existing:
        assert out.read_bytes() == b"earlier output\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", [_CALIBRATE, _SWEEP], ids=["calibrate", "sweep"])
def test_negative_seed_is_a_bad_argument(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([*command, str(out), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_write_probe_leaves_no_file_and_keeps_an_existing_one(tmp_path):
    fresh = tmp_path / "fresh"
    _probe_writable(str(fresh))
    assert not fresh.exists()
    kept = tmp_path / "kept"
    kept.write_bytes(b"\x00keep\n")
    _probe_writable(str(kept))
    assert kept.read_bytes() == b"\x00keep\n"


# -- evaluate -----------------------------------------------------------------

def test_evaluate_emits_csv_and_summary(landscape_file, tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    summary_path = tmp_path / "summary.json"
    code = main([
        "evaluate", "--landscape", str(landscape_file), "--granularity", "1/2",
        "--csv", str(csv_path), "--summary", str(summary_path),
    ])
    assert code == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["tx", "ty", "tz", "infidelity", "simplex"]
    assert len(rows) == 1 + 27
    for row in rows[1:]:
        assert 0.0 <= float(row[3]) <= 1.0

    summary = json.loads(summary_path.read_text())
    assert summary == json.loads(capsys.readouterr().out)
    assert summary["count"] == 27
    assert summary["mean_infidelity"] <= summary["max_infidelity"]
    assert summary["cumulative_iterations"] > 0


def test_evaluate_missing_landscape_file(tmp_path, capsys):
    code = main([
        "evaluate", "--landscape", str(tmp_path / "nope.json"),
        "--granularity", "1/2",
    ])
    assert code == 4
    assert "file error" in capsys.readouterr().err


def test_evaluate_corrupt_landscape_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["evaluate", "--landscape", str(bad), "--granularity", "1/2"])
    assert code == 4
    assert "corrupt" in capsys.readouterr().err


# -- interpolate --------------------------------------------------------------

def _edited_copy(landscape_file, tmp_path, edit):
    data = json.loads(landscape_file.read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("key", ["lambda", "seed"])
def test_interpolate_landscape_missing_header_key(landscape_file, tmp_path, capsys, key):
    path = _edited_copy(landscape_file, tmp_path, lambda d: d.pop(key))
    code = main(["interpolate", "--landscape", str(path), "--point", "0,0,0"])
    assert code == 4
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "amplitude", ["nan", "inf", float(1.5).hex(), float(-1.0 - 1e-9).hex()]
)
def test_interpolate_landscape_with_bad_amplitude(landscape_file, tmp_path, capsys, amplitude):
    def edit(data):
        data["references"][0]["alpha_hex"][5] = amplitude

    path = _edited_copy(landscape_file, tmp_path, edit)
    for point in ("0,0,0", "0.1,0.1,0.1"):
        code = main(["interpolate", "--landscape", str(path), "--point", point])
        captured = capsys.readouterr()
        assert code == 4
        assert "finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["duration", "alpha_max"])
def test_interpolate_landscape_with_non_finite_ansatz(landscape_file, tmp_path, capsys, field, value):
    # An infinite duration served every pulse with a NaN infidelity.
    def edit(data):
        data["ansatz"][field] = value

    path = _edited_copy(landscape_file, tmp_path, edit)
    code = main(["interpolate", "--landscape", str(path), "--point", "0.1,0.1,0.1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "finite" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update({"lambda": float("nan")}),
        lambda d: d["references"][0].update({"infidelity": float("nan")}),
        lambda d: d["log"][-1].update({"mean_penalty": float("inf")}),
    ],
    ids=["lambda-nan", "infidelity-nan", "mean_penalty-inf"],
)
def test_interpolate_landscape_with_non_finite_number(landscape_file, tmp_path, capsys, edit):
    path = _edited_copy(landscape_file, tmp_path, edit)
    code = main(["interpolate", "--landscape", str(path), "--point", "0.1,0.1,0.1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "finite" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "point", [[1.5, 1.5, 1.5], [1.0, 1.0, 1.0 + 1e-6], [-1e-6, 0.0, 0.0], ["nan", 1.0, 1.0]],
    ids=["far", "just-above", "just-below", "nan"],
)
def test_interpolate_landscape_with_reference_outside_the_domain(
    landscape_file, tmp_path, capsys, point
):
    def edit(data):
        data["references"][-1]["point"] = [float(c) for c in point]

    path = _edited_copy(landscape_file, tmp_path, edit)
    code = main(["interpolate", "--landscape", str(path), "--point", "0.9,0.9,0.9"])
    captured = capsys.readouterr()
    assert code == 4
    assert "outside the domain" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "row,reason",
    [([0, 1, 2, 1_000_000], "out of range"), ([0, 0, 1, 2], "degenerate")],
    ids=["missing-vertex", "degenerate"],
)
def test_interpolate_landscape_with_bad_simplex(landscape_file, tmp_path, capsys, row, reason):
    def edit(data):
        data["simplices"][0] = row

    path = _edited_copy(landscape_file, tmp_path, edit)
    code = main(["interpolate", "--landscape", str(path), "--point", "0,0,0"])
    captured = capsys.readouterr()
    assert code == 4
    assert reason in captured.err and captured.out == ""


def test_interpolate_at_reference_matches_stored_pulse(landscape_file, capsys):
    code = main([
        "interpolate", "--landscape", str(landscape_file), "--point", "0,0,1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    land = pc.load_landscape(landscape_file)
    idx = [tuple(r.point) for r in land.references].index((0.0, 0.0, 1.0))
    stored = land.references[idx]
    assert payload["family"] == "single-qubit"
    assert payload["point"] == [0.0, 0.0, 1.0]
    alpha = np.array([float.fromhex(h) for h in payload["alpha_hex"]])
    assert np.array_equal(alpha, stored.alpha)
    assert payload["infidelity"] == pytest.approx(stored.infidelity, abs=1e-15)


def test_interpolate_in_a_fresh_interpreter_does_not_import_scipy(landscape_file):
    """A command-line query loads and serves without triangulating, so
    its start-up is not charged SciPy's import."""
    script = (
        "import sys\n"
        "from pulsecal.cli import main\n"
        f"code = main(['interpolate', '--landscape', {str(landscape_file)!r}, '--point', '1/2,1/4,0'])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pc.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_interpolate_fractional_point_syntax(landscape_file, capsys):
    code = main([
        "interpolate", "--landscape", str(landscape_file), "--point", "1/2,1/4,0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [0.5, 0.25, 0.0]
    assert len(payload["alpha"]) == 40


def test_interpolate_out_of_domain_names_the_constraint(landscape_file, capsys):
    code = main([
        "interpolate", "--landscape", str(landscape_file), "--point", "2,0,0",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "domain error" in err
    assert "unit cube" in err


@pytest.mark.parametrize(
    "point,message",
    [("1,2", "3 comma-separated components"),
     ("1/0,0,0", "invalid point '1/0,0,0'"),
     ("1e400,0,0", "invalid point '1e400,0,0'")],
    ids=["too-few-components", "zero-denominator", "overflow"],
)
def test_interpolate_malformed_point(landscape_file, capsys, point, message):
    code = main([
        "interpolate", "--landscape", str(landscape_file), "--point", point,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_interpolate_writes_output_file(landscape_file, tmp_path, capsys):
    out = tmp_path / "pulse.json"
    code = main([
        "interpolate", "--landscape", str(landscape_file),
        "--point", "0,0,0", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


# -- sweep --------------------------------------------------------------------

def test_sweep_writes_cost_accuracy_table(tmp_path, capsys):
    # One calibration per granularity, each scored after every round.
    csv_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "single-qubit", "--granularities", "1,1/2",
        "--max-rounds", "1", "--test-granularity", "1/2",
        "--seed", "3", "--csv", str(csv_path),
    ])
    assert code == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["granularity", "round", "cumulative_iterations",
                       "mean_infidelity", "std_infidelity", "max_infidelity", "count"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("1", "0"), ("1", "1"), ("1/2", "0"), ("1/2", "1")]
    assert int(rows[2][2]) >= int(rows[1][2])
    assert all(r[6] == "27" for r in rows[1:])
    assert "g=1 round=1" in capsys.readouterr().out
    for g, table in (("1", rows[1:3]), ("1/2", rows[3:5])):
        cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(g), rounds=1, seed=3)
        assert table == [[g, str(k), str(s.cumulative_iterations), repr(s.mean_infidelity),
                          repr(s.std_infidelity), repr(s.max_infidelity), str(s.count)]
                         for k, s in enumerate(pc.sweep(cfg, Fraction(1, 2)))]
