import copy
import csv
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsecal as pc
from pulsecal.cli import main
from pulsecal.errors import FormatError
from pulsecal.io import (
    FORMAT_NAME,
    FORMAT_VERSION,
    landscape_from_dict,
    landscape_to_dict,
)
from pulsecal.linalg import SX, SY


@pytest.fixture()
def saved(small_landscape, tmp_path):
    path = tmp_path / "land.json"
    pc.save_landscape(small_landscape, path)
    return path


@pytest.mark.parametrize("field,value", [("lam", np.float32(0.5)), ("seed", np.int64(0))])
def test_a_failing_save_leaves_no_partial_file(small_landscape, saved, tmp_path, field, value):
    # A Landscape built by hand can hold a value that JSON cannot write.
    bad = dataclasses.replace(small_landscape, **{field: value})
    before = saved.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        pc.save_landscape(bad, saved)
    assert saved.read_bytes() == before
    with pytest.raises(TypeError, match="not JSON serializable"):
        pc.save_landscape(bad, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


def test_round_trip_preserves_everything(small_landscape, saved):
    loaded = pc.load_landscape(saved)
    assert landscape_to_dict(loaded) == landscape_to_dict(small_landscape)
    assert loaded.family.name == small_landscape.family.name
    assert loaded.ansatz == small_landscape.ansatz
    assert loaded.seed == small_landscape.seed
    for a, b in zip(loaded.references, small_landscape.references):
        assert np.array_equal(a.alpha, b.alpha)  # hex floats: bit-exact
        assert a.infidelity == b.infidelity
    assert np.array_equal(loaded.mesh.simplices, small_landscape.mesh.simplices)
    assert loaded.log == small_landscape.log


def test_round_trip_interpolation_is_bit_exact(small_landscape, saved):
    loaded = pc.load_landscape(saved)
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = rng.random(3)
        assert np.array_equal(
            pc.interpolate(small_landscape, p), pc.interpolate(loaded, p)
        )


def test_save_is_byte_identical(small_landscape, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    pc.save_landscape(small_landscape, p1)
    pc.save_landscape(small_landscape, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "family,granularity",
    [("weyl-chamber", Fraction(1, 6)), ("cartan-box", Fraction(1, 3)),
     ("single-qubit", Fraction(1, 3))],
)
def test_every_family_round_trips_bit_for_bit(family, granularity, tmp_path):
    # Boundary points such as ty = 1 - tx = 1/3 must pass the domain check
    # on load, whatever their float rounding.
    cfg = pc.CalibConfig(
        family=family, granularity=granularity, opt=pc.OptConfig(max_iter=1)
    )
    land = pc.initial_round(cfg)
    path = tmp_path / "land.json"
    pc.save_landscape(land, path)
    loaded = pc.load_landscape(path)
    assert landscape_to_dict(loaded) == landscape_to_dict(land)
    for a, b in zip(land.references, loaded.references):
        assert a.point.tobytes() == b.point.tobytes()
        assert a.alpha.tobytes() == b.alpha.tobytes()


# A 2-parameter family on the unit square, known to these tests only.
_SQUARE = pc.GateFamily(
    name="single-qubit-square",
    domain_description="the unit square 0 <= a, b <= 1",
    param_names=("a", "b"),
    corners=((0, 0), (1, 0), (0, 1), (1, 1)),
    model=pc.SINGLE_QUBIT.model,
    contains=lambda t: ((-1e-9 <= t) & (t <= 1 + 1e-9)).all(axis=-1),
    generators=np.stack([SX, SY]),
)


def test_a_two_parameter_family_calibrates_round_trips_and_serves(monkeypatch, tmp_path, capsys):
    # The family alone states its parameter count: registering it is all
    # that calibration, the file and the command line need.
    monkeypatch.setitem(pc.FAMILIES, _SQUARE.name, _SQUARE)
    land = pc.calibrate(pc.CalibConfig(family=_SQUARE.name, granularity=Fraction(1, 4), rounds=1))
    assert land.points.shape == (25, 2)
    path = tmp_path / "square.json"
    pc.save_landscape(land, path)
    loaded = pc.load_landscape(path)
    assert landscape_to_dict(loaded) == landscape_to_dict(land)
    for a, b in zip(land.references, loaded.references):
        assert a.point.tobytes() == b.point.tobytes()
        assert a.alpha.tobytes() == b.alpha.tobytes()

    assert main(["interpolate", "--landscape", str(path), "--point", "1/4,1/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [0.25, 1 / 3]
    alpha = np.array([float.fromhex(h) for h in payload["alpha_hex"]])
    assert alpha.tobytes() == pc.interpolate(land, (0.25, 1 / 3)).tobytes()
    assert payload["infidelity"] < 1e-3
    assert main(["interpolate", "--landscape", str(path), "--point", "1/4,1/3,0"]) == 2
    assert "point must have 2 comma-separated components" in capsys.readouterr().err

    table = tmp_path / "square.csv"
    assert main(["evaluate", "--landscape", str(path), "--granularity", "1/8",
                 "--csv", str(table)]) == 0
    header, *rows = list(csv.reader(table.open()))
    assert header == ["a", "b", "infidelity", "simplex"]
    assert len(rows) == 81
    assert all(len(row) == 4 for row in rows)


def test_header_is_self_describing(saved):
    data = json.loads(saved.read_text())
    assert data["format"] == FORMAT_NAME == "pulsecal-landscape"
    assert data["version"] == FORMAT_VERSION == 1
    assert data["family"] == "single-qubit"
    assert len(data["references"]) == 27
    for h in data["references"][0]["alpha_hex"]:
        float.fromhex(h)  # every stored amplitude parses back


def test_rejects_wrong_format_name(saved):
    data = json.loads(saved.read_text())
    data["format"] = "something-else"
    with pytest.raises(FormatError, match="not a pulsecal-landscape"):
        landscape_from_dict(data)


def test_rejects_unsupported_version(saved):
    data = json.loads(saved.read_text())
    data["version"] = 99
    with pytest.raises(FormatError, match="version"):
        landscape_from_dict(data)


def test_rejects_unknown_family(saved):
    data = json.loads(saved.read_text())
    data["family"] = "three-qubit"
    with pytest.raises(FormatError):
        landscape_from_dict(data)


def _exits_4(data, tmp_path) -> bool:
    """Whether ``pulsecal interpolate`` on a file holding ``data`` exits 4."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return main(["interpolate", "--landscape", str(path), "--point", "0,0,0"]) == 4


def test_rejects_pulse_length_mismatch(saved, tmp_path):
    data = json.loads(saved.read_text())
    data["references"][5]["alpha_hex"] = data["references"][5]["alpha_hex"][:-1]
    message = r"^reference 5: alpha_hex: alpha has shape \(39,\), expected \(40,\) or \(B, 40\)$"
    with pytest.raises(FormatError, match=message):
        landscape_from_dict(data)
    assert _exits_4(data, tmp_path)


def test_rejects_an_empty_log(saved, tmp_path):
    # Every file pulsecal writes holds its round-0 record, and a round
    # numbers itself by its place in the log.
    data = json.loads(saved.read_text())
    data["log"] = []
    with pytest.raises(FormatError, match="log: empty"):
        landscape_from_dict(data)
    assert _exits_4(data, tmp_path)


def _set(path, value):
    """An edit that sets the entry at ``path`` of the file's data to ``value``."""
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(key):
    """An edit that deletes the file's top-level entry ``key``."""
    return lambda data: data.pop(key)


# The top-level keys the loader reads after the format and version.
_TOP_LEVEL = ("family", "ansatz", "lambda", "seed", "references", "simplices", "log")


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set(("ansatz", "n_segments"), 20.0), r"^ansatz: n_segments: expected an integer, got 20\.0$"),
        (_set(("ansatz", "n_segments"), 0), r"^ansatz: n_segments: expected an integer >= 1, got 0$"),
        (lambda data: data["ansatz"].pop("duration"), r"^ansatz: duration: missing$"),
        (_set(("log", 0, "mean_penalty"), "x"), r"^log 0: mean_penalty: expected a number, got 'x'$"),
        (_set(("log", 1), [1, 2]), r"^log 1: expected an object, got list$"),
        (_set(("log", 1, "round"), 5), r"^log 1: round: expected 1, got 5$"),
        (_set(("references", 2, "infidelity"), None),
         r"^reference 2: infidelity: expected a number, got None$"),
        (_set(("references", 2, "alpha_hex", 7), 3),
         r"^reference 2: alpha_hex: expected a hex string, got 3$"),
        (_set(("references", 4, "alpha_hex", 0), "0x1.8p+0"),
         r"^reference 4: alpha_hex: alpha amplitude out of bounds"),
        (_set(("references", 6, "point", 1), 1.5),
         r"^reference 6: point: point \(.*\) outside the domain of family 'single-qubit'"),
        (_set(("references", 3, "iterations"), -5),
         r"^reference 3: iterations: expected a non-negative integer, got -5$"),
        (_set(("log", 1, "cumulative_iterations"), -1),
         r"^log 1: cumulative_iterations: expected a non-negative integer, got -1$"),
        (_set(("log", 1, "cumulative_iterations"), 5),
         r"^log 1: cumulative_iterations: expected 2035, got 5$"),
        (_set(("references", 0, "iterations"), 10**6),
         r"^references: iterations: expected a sum of 2035, got 1001988$"),
        (_set(("simplices", 4, 1), 3.0), r"^simplices 4: expected an integer, got 3\.0$"),
        (_set(("simplices", 4), "0 1 2 3"), r"^simplices 4: expected an array, got str$"),
        (_set(("simplices", 4, 0), -1), r"^simplices 4: expected a non-negative integer, got -1$"),
        (_set(("lambda",), "x"), r"^malformed landscape file: lambda: expected a number, got 'x'$"),
        (_set(("lambda",), -1.0),
         r"^malformed landscape file: lambda: expected a number >= 0, got -1\.0$"),
        (_set(("lambda",), float("inf")),
         r"^malformed landscape file: lambda: expected a finite number, got inf$"),
        (_set(("lambda",), float("nan")),
         r"^malformed landscape file: lambda: expected a finite number, got nan$"),
        (_set(("seed",), "x"), r"^seed: expected an integer, got 'x'$"),
        (_set(("seed",), -1), r"^seed: expected a non-negative integer, got -1$"),
        (_set(("simplices", 4, 3), 99),
         r"^malformed landscape file: simplices 4: vertex index 99 out of range$"),
        (_set(("simplices", 4, 0), 2**70),
         r"^malformed landscape file: simplices 4: vertex index \d+ out of range$"),
        (_set(("simplices", 4), [0, 1, 2]),
         r"^malformed landscape file: simplices 4: 3 vertices, expected 4$"),
        (_set(("simplices", 4), [0, 1, 2, 3, 4]),
         r"^malformed landscape file: simplices 4: 5 vertices, expected 4$"),
        (lambda data: data["simplices"].insert(5, data["simplices"][0]),
         r"^malformed landscape file: simplices 5: repeats simplices 0$"),
        (lambda data: data["simplices"].insert(5, [data["simplices"][0][i] for i in (1, 0, 3, 2)]),
         r"^malformed landscape file: simplices 5: repeats simplices 0$"),
        (_set(("references",), "x"), r"^references: expected an array, got str$"),
        *((_drop(key), rf"^{key}: missing$") for key in _TOP_LEVEL),
    ],
    ids=["ansatz-fraction", "ansatz-zero", "ansatz-missing", "log-string", "log-list", "log-round",
         "reference-null", "reference-hex", "reference-amplitude", "reference-domain",
         "reference-iterations", "log-cumulative", "log-running-sum", "references-iterations-sum",
         "simplices-fraction", "simplices-string", "simplices-negative", "lambda-string",
         "lambda-negative", "lambda-infinite", "lambda-nan",
         "seed-string", "seed-negative", "simplices-range", "simplices-huge", "simplices-short",
         "simplices-long", "simplices-repeated", "simplices-permuted", "references-string",
         *(f"no-{key}" for key in _TOP_LEVEL)],
)
def test_loader_errors_name_the_record_and_the_field(saved, tmp_path, edit, message):
    data = json.loads(saved.read_text())
    edit(data)
    with pytest.raises(FormatError, match=message):
        landscape_from_dict(data)
    assert _exits_4(data, tmp_path)


# The stored keys, in file order: renaming or reordering a field of the
# dataclass changes the file's bytes, so it must fail here.
_SCHEMAS = {
    pc.ControlAnsatz: ["n_controls", "n_segments", "duration", "alpha_max"],
    pc.RoundRecord: ["round", "iterations", "cumulative_iterations", "mean_infidelity",
                     "max_infidelity", "mean_penalty"],
    pc.EvalSummary: ["mean_infidelity", "std_infidelity", "max_infidelity", "count",
                     "cumulative_iterations"],
}


def test_records_are_stored_as_their_dataclasses_fields(saved, tmp_path):
    for cls, keys in _SCHEMAS.items():
        assert [f.name for f in dataclasses.fields(cls)] == keys
    data = json.loads(saved.read_text())
    assert list(data["ansatz"]) == _SCHEMAS[pc.ControlAnsatz]
    for k, rec in enumerate(data["log"]):
        assert list(rec) == _SCHEMAS[pc.RoundRecord]
        assert rec["round"] == k
    summary = tmp_path / "summary.json"
    assert main(["evaluate", "--landscape", str(saved), "--granularity", "1/2",
                 "--summary", str(summary)]) == 0
    assert list(json.loads(summary.read_text())) == _SCHEMAS[pc.EvalSummary]
    served = tmp_path / "pulse.json"
    assert main(["interpolate", "--landscape", str(saved), "--point", "1/4,1/4,1/4",
                 "--out", str(served)]) == 0
    assert json.loads(served.read_text())["ansatz"] == data["ansatz"]


@pytest.mark.parametrize("components", [2, 4])
def test_rejects_a_point_with_the_wrong_component_count(saved, tmp_path, components):
    data = json.loads(saved.read_text())
    ref = data["references"][3]
    ref["point"] = (ref["point"] + [0.0])[:components]
    message = rf"^reference 3: point: points have shape \({components},\), expected \(3,\) or \(B, 3\)$"
    with pytest.raises(FormatError, match=message):
        landscape_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["interpolate", "--landscape", str(path), "--point", "0,0,0"]) == 4


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_amplitude_on_the_bound_loads_and_evolves_and_one_ulp_past_it_does_neither(saved, sign):
    # The largest float within alpha_max * (1 + 1e-12), and the next one up.
    data = json.loads(saved.read_text())
    alpha_max = data["ansatz"]["alpha_max"]
    edge = alpha_max * (1 + 1e-12)
    data["references"][0]["alpha_hex"][5] = float(sign * edge).hex()
    land = landscape_from_dict(data)
    pc.evolve(land.family.model, land.ansatz, land.references[0].alpha)

    past = sign * np.nextafter(edge, np.inf)
    data["references"][0]["alpha_hex"][5] = float(past).hex()
    with pytest.raises(FormatError, match="finite"):
        landscape_from_dict(data)
    land.references[0].alpha[5] = past
    with pytest.raises(ValueError, match="out of bounds"):
        pc.evolve(land.family.model, land.ansatz, land.references[0].alpha)


def test_rejects_corrupt_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    with pytest.raises(FormatError, match="corrupt"):
        pc.load_landscape(path)
    path.write_text('["a", "list"]')
    with pytest.raises(FormatError, match="expected an object"):
        pc.load_landscape(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        pc.load_landscape(tmp_path / "nope.json")


# -- fuzzing ------------------------------------------------------------------
# A saved file with one entry replaced or deleted, or a few bytes changed,
# must either load as exactly what it says or raise FormatError.

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.floats(-2.0, 2.0).map(float.hex),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutated(data, draw):
    """``data`` with one entry somewhere in it replaced or deleted."""
    data = copy.deepcopy(data)
    node = data
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JSON_VALUES)
        return data


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _holds(loaded, filed, key=None) -> bool:
    """Whether the loaded value ``loaded`` is the file's ``filed``, exactly.

    ``loaded`` comes from landscape_to_dict of the loaded landscape. Pulse
    amplitudes compare as the floats their hex strings denote, and the
    mesh as its set of vertex sets, which the loader puts in canonical
    order; everything else compares value for value, type included.
    """
    if isinstance(loaded, dict):
        return isinstance(filed, dict) and all(
            k in filed and _holds(v, filed[k], k) for k, v in loaded.items()
        )
    if key == "simplices":
        try:
            return _holds(loaded, sorted(sorted(row) for row in filed))
        except TypeError:
            return False
    if isinstance(loaded, list):
        return (isinstance(filed, list) and len(loaded) == len(filed)
                and all(_holds(a, b, key) for a, b in zip(loaded, filed)))
    if key == "alpha_hex":
        return isinstance(filed, str) and _same_bits(float.fromhex(loaded), float.fromhex(filed))
    if isinstance(loaded, str):
        return loaded == filed
    if isinstance(filed, bool) or not isinstance(filed, (int, float)):
        return False
    if isinstance(loaded, int):
        return loaded == filed
    return _same_bits(loaded, filed)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_exactly_or_raises_format_error(small_landscape, tmp_path_factory, data):
    mutated = _mutated(landscape_to_dict(small_landscape), data.draw)
    path = tmp_path_factory.mktemp("fuzz") / "land.json"
    path.write_text(json.dumps(mutated))
    try:
        loaded = pc.load_landscape(path)
    except FormatError:
        return
    assert _holds(landscape_to_dict(loaded), mutated)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_bytes_load_exactly_or_raise_format_error(small_landscape, tmp_path_factory, data):
    text = json.dumps(landscape_to_dict(small_landscape)).encode()
    at = data.draw(st.integers(0, len(text) - 1))
    cut = data.draw(st.integers(0, 3))
    text = text[:at] + data.draw(st.binary(max_size=3)) + text[at + cut:]
    path = tmp_path_factory.mktemp("fuzz") / "land.json"
    path.write_bytes(text)
    try:
        loaded = pc.load_landscape(path)
    except FormatError:
        return
    assert _holds(landscape_to_dict(loaded), json.loads(text.decode()))
