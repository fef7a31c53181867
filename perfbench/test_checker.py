"""The benchmark's checker accepts pulsecal's outputs and rejects wrong ones.

    python3 -m pytest perfbench/test_checker.py
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import pulsecal as pc  # noqa: E402


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A small calibrated single-qubit landscape, its evaluation and served queries."""
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), rounds=1, seed=7)
    landscape = pc.calibrate(cfg)
    path = tmp_path_factory.mktemp("landscape") / "landscape.json"
    pc.save_landscape(landscape, path)
    records, summary = pc.evaluate_grid(landscape, Fraction(1, 4))
    queries = np.random.default_rng(3).random((64, 3))
    queries[::8] = landscape.points[::3][:8]
    served = np.stack([pc.interpolate(landscape, q) for q in queries])
    vertex_of = [i // 8 * 3 if i % 8 == 0 else -1 for i in range(len(queries))]
    return {
        "land": checker.read_landscape(path),
        "points": np.array([r.point for r in records]),
        "infids": np.array([r.infidelity for r in records]),
        "summary": summary,
        "queries": queries,
        "served": served,
        "vertex_of": vertex_of,
    }


def _evaluation_faults(case, land):
    s = case["summary"]
    return checker.evaluation_faults(land, case["points"], case["infids"],
                                     s.mean_infidelity, s.max_infidelity)


def test_accepts_pulsecal_outputs(case):
    land = case["land"]
    assert checker.reference_faults(land, on_branch=True) == []
    assert _evaluation_faults(case, land) == []
    assert checker.serving_faults(land, case["queries"], case["served"], case["vertex_of"]) == []


def test_targets_and_propagator_agree_with_closed_forms():
    # exp(-i*pi/2*X) = -iX, and a pulse of amplitude 1/2 on the y control
    # over the duration pi is exp(-i*pi/2*Y) = -iY.
    assert np.allclose(checker.targets(2, [[1.0, 0.0, 0.0]])[0], -1j * checker.X)
    alpha = np.concatenate([np.full(20, 0.5), np.zeros(20)])
    assert np.allclose(checker.propagators(2, alpha[None], 20, np.pi)[0], -1j * checker.Y)


def test_rejects_a_perturbed_pulse(case):
    land = case["land"]
    alphas = land.alphas.copy()
    alphas[5, 3] += 1e-3
    bad = dataclasses.replace(land, alphas=alphas)
    assert any("do not recompute" in f for f in checker.reference_faults(bad, on_branch=True))
    assert any("per-point" in f for f in _evaluation_faults(case, bad))


def test_rejects_a_reference_on_minus_v(case):
    land = case["land"]
    i = int(np.flatnonzero((land.points == 0.0).all(axis=1))[0])  # V = I at the origin
    alphas = land.alphas.copy()
    alphas[i] = np.concatenate([np.ones(20), np.zeros(20)])  # exp(-i*pi*Y) = -I
    u = checker.propagators(2, alphas[i:i + 1], land.n_segments, land.duration)
    infids = land.infidelities.copy()
    infids[i] = checker.infidelities(u, checker.targets(2, land.points[i:i + 1]))[0]
    bad = dataclasses.replace(land, alphas=alphas, infidelities=infids)
    assert infids[i] < 1e-12
    assert checker.reference_faults(bad, on_branch=False) == []
    assert checker.reference_faults(bad, on_branch=True) == [
        "1 references do not implement V(t) itself"]


def test_rejects_a_wrong_convex_combination(case):
    land = case["land"]
    simplex, coords = checker.containing(land, case["queries"][1:2])
    served = case["served"].copy()
    served[1] = checker.combinations(land, simplex, coords[:, ::-1])[0]
    faults = checker.serving_faults(land, case["queries"], served, case["vertex_of"])
    assert any("convex combination" in f for f in faults)


def test_rejects_a_vertex_query_off_by_one_bit(case):
    served = case["served"].copy()
    served[0, 0] = np.nextafter(served[0, 0], 2.0)
    faults = checker.serving_faults(case["land"], case["queries"], served, case["vertex_of"])
    assert faults == ["a vertex query does not return its stored pulse bit for bit"]
