import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

import pulsecal as pc
from pulsecal.errors import DomainError
from pulsecal.linalg import gate_infidelity
from pulsecal.mesh import locate
from pulsecal.pulses import evolve


# -- interpolation ------------------------------------------------------------

def test_interpolation_at_reference_returns_stored_pulse(small_landscape):
    land = small_landscape
    for ref in land.references:
        assert np.array_equal(pc.interpolate(land, ref.point), ref.alpha)


def test_interpolation_at_edge_midpoint_is_pulse_average(small_landscape):
    land = small_landscape
    row = land.mesh.simplices[0]
    a, b = int(row[0]), int(row[1])
    mid = (land.points[a] + land.points[b]) / 2
    got = pc.interpolate(land, mid)
    want = (land.references[a].alpha + land.references[b].alpha) / 2
    assert np.allclose(got, want, atol=1e-12)


def test_interpolation_adds_vertex_terms_in_vertex_order(small_landscape):
    # Reference: the per-vertex loop the combination replaced.
    land = small_landscape
    rng = np.random.default_rng(6)
    points = np.concatenate([land.points, rng.random((300, 3))])
    for p in points:
        loc = locate(land.mesh, p)
        want = np.zeros(land.ansatz.n_params)
        for b, v in zip(loc.coords, land.mesh.simplices[loc.simplex]):
            if b != 0.0:
                want = want + b * land.references[v].alpha
        assert pc.interpolate(land, p).tobytes() == want.tobytes()


def test_interpolated_pulses_respect_amplitude_bounds(small_landscape):
    land = small_landscape
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.random(3)
        alpha = pc.interpolate(land, p)
        assert np.abs(alpha).max() <= land.ansatz.alpha_max + 1e-12


def test_interpolation_outside_domain_raises(small_landscape):
    with pytest.raises(DomainError):
        pc.interpolate(small_landscape, np.array([1.5, 0.0, 0.0]))


def test_interpolation_continuous_across_simplex_boundaries(small_landscape):
    # Walk a segment crossing several simplices; pulses along it must not
    # jump (barycentric interpolation is globally continuous).
    land = small_landscape
    start, end = np.array([0.1, 0.2, 0.3]), np.array([0.9, 0.7, 0.6])
    ts = np.linspace(0.0, 1.0, 400)
    pulses = np.array([pc.interpolate(land, start + t * (end - start)) for t in ts])
    simplices = {locate(land.mesh, start + t * (end - start)).simplex for t in ts}
    assert len(simplices) > 1
    steps = np.abs(np.diff(pulses, axis=0)).max(axis=1)
    assert steps.max() < 0.05


# -- grid evaluation ----------------------------------------------------------

def test_evaluate_at_reference_grid_reproduces_stored_infidelities(small_landscape):
    records, summary = pc.evaluate_grid(small_landscape, Fraction(1, 2))
    assert summary.count == len(small_landscape.references) == 27
    for rec, ref in zip(records, small_landscape.references):
        assert np.array_equal(rec.point, ref.point)
        assert abs(rec.infidelity - ref.infidelity) <= 1e-12


def test_evaluation_summary_statistics(small_landscape):
    records, summary = pc.evaluate_grid(small_landscape, Fraction(1, 4))
    infids = np.array([r.infidelity for r in records])
    assert summary.count == len(records) == 125
    assert summary.mean_infidelity == pytest.approx(infids.mean(), rel=1e-15)
    assert summary.std_infidelity == pytest.approx(infids.std(), rel=1e-15)
    assert summary.max_infidelity == infids.max()
    assert summary.mean_infidelity <= summary.max_infidelity
    assert summary.cumulative_iterations == small_landscape.cumulative_iterations
    for rec in records:
        assert 0.0 <= rec.infidelity <= 1.0
        assert 0 <= rec.simplex < len(small_landscape.mesh.simplices)


def test_evaluation_scores_against_family_target(small_landscape):
    # Blocked, batched scoring gives each point the bits that scoring it
    # alone gives.
    land = small_landscape
    records, _ = pc.evaluate_grid(land, Fraction(1, 4))
    model = land.family.model
    assert len(records) == 125
    for rec in records:
        u = evolve(model, land.ansatz, pc.interpolate(land, rec.point))
        expected = gate_infidelity(u, land.family.unitary(rec.point))
        assert rec.infidelity == expected
        assert rec.simplex == locate(land.mesh, rec.point).simplex


def test_interpolate_many_equals_interpolate_row_by_row(small_landscape):
    land = small_landscape
    rng = np.random.default_rng(4)
    lattice = pc.SINGLE_QUBIT.grid(Fraction(1, 6))
    points = np.concatenate([land.points, rng.random((150, 3)), lattice])
    many = pc.interpolate_many(land, points)
    assert many.shape == (len(points), land.ansatz.n_params)
    for p, row in zip(points, many):
        assert row.tobytes() == pc.interpolate(land, p).tobytes()


def test_interpolate_many_rejects_bad_shapes_and_outside_points(small_landscape):
    with pytest.raises(DomainError, match="shape"):
        pc.interpolate_many(small_landscape, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(DomainError, match="outside"):
        pc.interpolate_many(small_landscape, np.array([[0.5, 0.5, 0.5], [1.5, 0.0, 0.0]]))
    empty = pc.interpolate_many(small_landscape, np.empty((0, 3)))
    assert empty.shape == (0, small_landscape.ansatz.n_params)


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (2,), (4,), ()])
def test_interpolate_refuses_anything_but_one_point(small_landscape, shape):
    message = rf"^point has shape {re.escape(str(shape))}, expected \(3,\)$"
    with pytest.raises(DomainError, match=message):
        pc.interpolate(small_landscape, np.full(shape, 0.25))


# -- sweep --------------------------------------------------------------------

def test_sweep_row_layout_and_monotone_cost():
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1), rounds=2, seed=3)
    summaries = pc.sweep(cfg, test_granularity=Fraction(1, 2))
    assert len(summaries) == 3
    cums = [s.cumulative_iterations for s in summaries]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    for s in summaries:
        assert s.count == 27


def test_sweep_rows_equal_fresh_calibrations():
    """Round k of a sweep is what calibrating with k rounds and scoring gives."""
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), rounds=2, seed=7)
    summaries = pc.sweep(cfg, test_granularity=Fraction(1, 4))
    assert len(summaries) == 3
    for k, summary in enumerate(summaries):
        land = pc.calibrate(dataclasses.replace(cfg, rounds=k))
        assert summary == pc.evaluate_grid(land, Fraction(1, 4))[1]


def test_sweep_zero_rounds_gives_single_row_per_granularity():
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1), seed=3)
    summaries = pc.sweep(cfg, test_granularity=Fraction(1, 1))
    assert len(summaries) == 1
    # Test grid equals the reference grid, so interpolation is exact there.
    assert summaries[0].count == 8


def test_evaluate_grid_refuses_a_bool_spacing(small_landscape):
    with pytest.raises(ValueError, match=r"^granularity must be a number, got True$"):
        pc.evaluate_grid(small_landscape, True)
