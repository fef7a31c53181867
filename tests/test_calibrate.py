import copy
import dataclasses
import functools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib

import pulsecal as pc
from pulsecal.errors import OptimizationError

# The package re-exports calibrate() under the submodule's name, so reach
# the module itself through importlib for monkeypatching.
calibrate_mod = importlib.import_module("pulsecal.calibrate")
from pulsecal.families import GateFamily
from pulsecal.io import landscape_from_dict, landscape_to_dict
from pulsecal.linalg import gate_infidelity
from pulsecal.mesh import build_mesh, neighbors
from pulsecal.optimize import minimize, seeded_init
from pulsecal.pulses import ControlAnsatz, CostSpec, cost_and_gradient, evolve, tikhonov_weight

from gate_checks import su_branch


@pytest.fixture(scope="module")
def corner_run():
    """8-reference single-qubit run (granularity 1), one round."""
    cfg = pc.CalibConfig(
        family="single-qubit", granularity=Fraction(1, 1), rounds=1, seed=3
    )
    return cfg, pc.calibrate(cfg)


@pytest.fixture(scope="module")
def healed_run():
    """27-reference single-qubit run with three coordination rounds."""
    cfg = pc.CalibConfig(
        family="single-qubit", granularity=Fraction(1, 2), rounds=3, seed=7
    )
    return pc.calibrate(cfg)


# -- initial round ------------------------------------------------------------

def test_identity_reference_needs_almost_no_pulse():
    cfg = pc.CalibConfig(
        family="single-qubit", granularity=Fraction(1, 1), rounds=0, seed=3
    )
    land = pc.initial_round(cfg)
    ref = land.references[0]
    assert tuple(ref.point) == (0.0, 0.0, 0.0)
    assert ref.infidelity < 1e-8
    assert np.abs(ref.alpha).max() < 1e-3


def test_initial_round_chamber_structure(chamber_initial):
    land = chamber_initial
    grid = land.family.grid(Fraction(1, 4))
    assert len(land.references) == 14
    assert np.array_equal(land.points, grid)
    for ref in land.references:
        assert ref.cumulative_iterations <= 50
        assert np.abs(ref.alpha).max() <= 1.0 + 1e-12
    assert len(land.log) == 1
    rec = land.log[0]
    assert rec.round == 0
    assert rec.cumulative_iterations == sum(
        r.cumulative_iterations for r in land.references
    )
    assert land.cumulative_iterations == rec.cumulative_iterations


def test_stored_infidelity_matches_recompute(small_landscape):
    land = small_landscape
    model = land.family.model
    for ref in land.references:
        u = evolve(model, land.ansatz, ref.alpha)
        recomputed = gate_infidelity(u, land.family.unitary(ref.point))
        assert abs(recomputed - ref.infidelity) <= 1e-12


def _serial_initial_round(cfg):
    """The initial round as one minimize() per reference, in index order.

    The reference for the lockstep batch: each reference's pulse, stored
    infidelity and iterations come from that problem alone.
    """
    family = pc.get_family(cfg.family)
    ansatz = ControlAnsatz(n_controls=family.model.n_controls, n_segments=cfg.n_segments)
    points = family.grid(cfg.granularity)
    refs = []
    for index, point in enumerate(points):
        target = family.unitary(point)
        spec = CostSpec(target=target, lam=cfg.lam, alpha0=np.zeros(ansatz.n_params))
        alpha, report = minimize(
            functools.partial(cost_and_gradient, spec, family.model, ansatz),
            seeded_init(ansatz, cfg.seed ^ index), ansatz.alpha_max, cfg.opt,
        )
        infid = gate_infidelity(evolve(family.model, ansatz, alpha), target)
        refs.append(pc.ReferencePulse(np.array(point), alpha, infid, report.iterations))
    land = pc.Landscape(family, ansatz, cfg.lam, refs, build_mesh(points), [], cfg.seed)
    land.log.append(
        calibrate_mod._round_record(land, sum(r.cumulative_iterations for r in refs))
    )
    return land


@pytest.mark.parametrize(
    "family,granularity,seed",
    [("single-qubit", Fraction(1, 2), 7), ("single-qubit", Fraction(1, 4), 0),
     ("weyl-chamber", Fraction(1, 4), 42)],
)
def test_lockstep_initial_round_equals_serial_minimize(family, granularity, seed, chamber_initial):
    cfg = pc.CalibConfig(family=family, granularity=granularity, seed=seed)
    if family == "weyl-chamber":
        land = chamber_initial
    else:
        land = pc.initial_round(cfg)
    assert landscape_to_dict(land) == landscape_to_dict(_serial_initial_round(cfg))


# -- neighbor statistics ------------------------------------------------------

def _toy_landscape(alphas, lam=1e-2):
    """2-d triangle mesh: vertex 0 has exactly the neighbors 1 and 2."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ansatz = ControlAnsatz(n_controls=5, n_segments=20)
    refs = [
        pc.ReferencePulse(point=p, alpha=a, infidelity=0.0, cumulative_iterations=0)
        for p, a in zip(pts, alphas)
    ]
    return pc.Landscape(
        family=pc.get_family("weyl-chamber"),
        ansatz=ansatz,
        lam=lam,
        references=refs,
        mesh=build_mesh(pts),
        log=[],
        seed=0,
    )


def test_neighbor_average_of_zero_and_one_pulses():
    n = 100
    alphas = [np.zeros(n), np.zeros(n), np.ones(n), np.full(n, 7.0)]
    land = _toy_landscape(alphas)
    nbrs = sorted(pc.neighbors(land.mesh, 0))
    assert nbrs == [1, 2]
    assert np.array_equal(pc.neighbor_average(land, 0), np.full(n, 0.5))


def test_neighbor_average_of_identical_pulses_is_that_pulse():
    rng = np.random.default_rng(4)
    a = rng.normal(size=100)
    land = _toy_landscape([np.zeros(100), a, a.copy(), a.copy()])
    assert np.array_equal(pc.neighbor_average(land, 0), a)


def test_neighbor_penalty_arithmetic():
    # ||alpha - neighbor average||^2 = 4, scaled by lambda/(n_f n_p a_max^2).
    n = 100
    me = np.zeros(n)
    me[0] = 2.0
    land = _toy_landscape([me, np.zeros(n), np.zeros(n), np.zeros(n)])
    lam_tilde = tikhonov_weight(1e-2, land.ansatz)
    assert lam_tilde == pytest.approx(1e-4)
    assert pc.neighbor_penalty(land, 0) == lam_tilde * 4.0


def test_visit_order_descending_with_stable_ties():
    assert pc.visit_order([3.0, 1.0, 2.0]).tolist() == [0, 2, 1]
    assert pc.visit_order([1.0, 1.0, 0.0]).tolist() == [0, 1, 2]
    assert pc.visit_order([0.0, 5.0, 5.0, 1.0]).tolist() == [1, 2, 3, 0]


def test_visit_order_invariant_under_penalty_rescaling():
    rng = np.random.default_rng(11)
    pens = rng.random(40)
    assert np.array_equal(pc.visit_order(pens), pc.visit_order(pens * 17.5))


# -- re-optimization rounds ---------------------------------------------------

def test_round_is_noop_on_converged_uniform_landscape():
    # Every pulse equals its neighbor average and hits its target exactly,
    # so each visit starts at a stationary point and accepts no step.
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    const_family = GateFamily(
        name="const-identity",
        domain_description="anywhere",
        corners=tuple(map(tuple, pts)),
        model=pc.SINGLE_QUBIT.model,
        contains=lambda t: np.ones(np.shape(t)[:-1], dtype=bool),
        target=lambda t: np.broadcast_to(np.eye(2, dtype=complex), np.shape(t)[:-1] + (2, 2)),
    )
    ansatz = ControlAnsatz(n_controls=2, n_segments=20)
    refs = [
        pc.ReferencePulse(
            point=p, alpha=np.zeros(ansatz.n_params), infidelity=0.0,
            cumulative_iterations=0,
        )
        for p in pts
    ]
    land = pc.Landscape(
        family=const_family, ansatz=ansatz, lam=1e-2, references=refs,
        mesh=build_mesh(pts),
        log=[pc.RoundRecord(0, 0, 0, 0.0, 0.0, 0.0)], seed=0,
    )
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1))
    pc.reoptimization_round(land, cfg.opt)
    for ref in land.references:
        assert np.array_equal(ref.alpha, np.zeros(ansatz.n_params))
        assert ref.infidelity == 0.0
    rec = land.log[-1]
    assert rec.round == 1
    assert rec.iterations == 0
    assert rec.mean_infidelity == 0.0
    assert rec.mean_penalty == 0.0


def test_round_keeps_a_loaded_landscape_in_its_own_box():
    # A landscape stored with alpha_max 0.5: the round optimizes inside
    # the box its pulses are evolved and stored under.
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), seed=1)
    data = landscape_to_dict(pc.initial_round(cfg))
    data["ansatz"]["alpha_max"] = 0.5
    for ref in data["references"]:
        ref["alpha_hex"] = [(0.5 * float.fromhex(a)).hex() for a in ref["alpha_hex"]]
    land = landscape_from_dict(data)
    pc.reoptimization_round(land, cfg.opt)
    assert land.ansatz.alpha_max == 0.5
    # Some pulse presses against the box, so the bound is in force.
    assert max(np.abs(ref.alpha).max() for ref in land.references) == 0.5
    assert len(land.log) == 2


def _serial_round(land, cfg):
    """A coordination round as one minimize() per visit, in visit order.

    The reference for the waves: each visit reads its neighbors' latest
    pulses, and its pulse, stored infidelity and iterations come from
    that problem alone.
    """
    family, ansatz, model = land.family, land.ansatz, land.family.model
    order = pc.visit_order([pc.neighbor_penalty(land, i) for i in range(len(land.references))])
    iterations = 0
    for i in order:
        ref = land.references[i]
        ahat = pc.neighbor_average(land, i)
        target = family.unitary(ref.point)
        spec = CostSpec(target=target, lam=land.lam, alpha0=ahat, pin_branch=True)
        x0 = np.clip(ahat, -ansatz.alpha_max, ansatz.alpha_max)
        objective = functools.partial(cost_and_gradient, spec, model, ansatz)
        alpha, report = minimize(objective, x0, ansatz.alpha_max, cfg.opt)
        infid = gate_infidelity(evolve(model, ansatz, alpha), target)
        land.references[i] = pc.ReferencePulse(
            ref.point, alpha, infid, ref.cumulative_iterations + report.iterations
        )
        iterations += report.iterations
    land.log.append(calibrate_mod._round_record(land, iterations))
    return land


@pytest.mark.parametrize(
    "family,granularity,seed,rounds",
    [("single-qubit", Fraction(1, 2), 7, 2), ("single-qubit", Fraction(1, 4), 0, 1),
     ("weyl-chamber", Fraction(1, 4), 42, 1)],
)
def test_wave_rounds_equal_serial_visits(family, granularity, seed, rounds, chamber_initial):
    cfg = pc.CalibConfig(family=family, granularity=granularity, seed=seed)
    if family == "weyl-chamber":
        start = chamber_initial
    else:
        start = pc.initial_round(cfg)
    waves, serial = copy.deepcopy(start), copy.deepcopy(start)
    for _ in range(rounds):
        pc.reoptimization_round(waves, cfg.opt)
        _serial_round(serial, cfg)
        assert landscape_to_dict(waves) == landscape_to_dict(serial)


@functools.lru_cache(maxsize=None)
def _wave_mesh(name):
    if name == "toy":
        return _toy_landscape([np.zeros(100)] * 4).mesh
    return build_mesh(pc.get_family(name).grid(Fraction(1, 4)))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), name=st.sampled_from(["weyl-chamber", "single-qubit", "cartan-box", "toy"]))
def test_waves_keep_every_visit_after_its_earlier_neighbors(data, name):
    mesh = _wave_mesh(name)
    order = data.draw(st.permutations(range(mesh.n_vertices)))
    waves = calibrate_mod._waves(mesh, order)
    position = {v: p for p, v in enumerate(order)}
    wave_of = {v: k for k, wave in enumerate(waves) for v in wave}
    assert sorted(v for wave in waves for v in wave) == list(range(mesh.n_vertices))
    for k, wave in enumerate(waves):
        assert [position[v] for v in wave] == sorted(position[v] for v in wave)
        for v in wave:
            earlier = [wave_of[j] for j in neighbors(mesh, v) if position[j] < position[v]]
            assert all(w < k for w in earlier)
            # The earliest wave allowed: the first, or the one after an
            # earlier neighbor's.
            assert k == 0 or k - 1 in earlier


def test_references_stay_converged_after_each_round(healed_run):
    # Round 0 may leave stragglers (it does at this seed); every
    # coordination round after it keeps all references converged.
    land = healed_run
    assert land.log[0].max_infidelity > 1e-3
    for rec in land.log[1:]:
        assert rec.max_infidelity < 1e-3


def test_coordination_round_puts_references_on_the_branch(small_landscape):
    # Round 0 of this run splits the 27 references 13/14 between the two
    # SU(2) branches V(t) and -V(t); one coordination round matches V(t)
    # itself at every reference.
    land = small_landscape
    model = land.family.model
    for ref in land.references:
        u = evolve(model, land.ansatz, ref.alpha)
        assert su_branch(u, land.family.unitary(ref.point)) == 0


def test_mean_penalty_never_increases(healed_run):
    pens = [rec.mean_penalty for rec in healed_run.log]
    assert all(b <= a for a, b in zip(pens, pens[1:]))


def test_log_bookkeeping(healed_run):
    land = healed_run
    assert [rec.round for rec in land.log] == [0, 1, 2, 3]
    cums = [rec.cumulative_iterations for rec in land.log]
    assert all(b > a for a, b in zip(cums, cums[1:]))
    assert cums[-1] == sum(rec.iterations for rec in land.log)
    assert land.cumulative_iterations == cums[-1]
    per_ref = sum(r.cumulative_iterations for r in land.references)
    assert per_ref == cums[-1]


# -- pipeline equivalences ----------------------------------------------------

def test_rounds_zero_is_exactly_the_initial_round():
    cfg = pc.CalibConfig(
        family="single-qubit", granularity=Fraction(1, 1), rounds=0, seed=5
    )
    a = pc.calibrate(cfg)
    b = pc.initial_round(cfg)
    assert landscape_to_dict(a) == landscape_to_dict(b)


def test_calibration_is_deterministic(corner_run):
    cfg, land = corner_run
    again = pc.calibrate(cfg)
    assert landscape_to_dict(land) == landscape_to_dict(again)


# -- failure paths and config -------------------------------------------------

@pytest.mark.parametrize("stage", ["initial", "coordination"])
def test_optimization_failure_names_the_reference_point(monkeypatch, stage):
    # A NaN target makes the first problem of the round fail at its start.
    bad_family = GateFamily(
        name="single-qubit",
        domain_description="anywhere",
        corners=pc.SINGLE_QUBIT.corners,
        model=pc.SINGLE_QUBIT.model,
        contains=lambda t: np.ones(np.shape(t)[:-1], dtype=bool),
        target=lambda t: np.full(np.shape(t)[:-1] + (2, 2), np.nan, dtype=complex),
    )
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1), seed=3)
    if stage == "initial":
        monkeypatch.setattr(calibrate_mod, "get_family", lambda name: bad_family)
        message = r"^initial optimization failed at reference point \(0.0, 0.0, 0.0\)"
        run = lambda: pc.initial_round(cfg)
    else:
        land = pc.initial_round(cfg)
        pens = [pc.neighbor_penalty(land, i) for i in range(len(land.references))]
        first = land.references[pc.visit_order(pens)[0]].point
        where = re.escape(str(tuple(float(c) for c in first)))
        message = rf"^re-optimization failed at reference point {where}"
        land.family = bad_family
        run = lambda: pc.reoptimization_round(land, cfg.opt)
    with pytest.raises(OptimizationError, match=message):
        run()


def test_initial_failure_at_a_later_point_names_that_point(monkeypatch):
    # Only the reference at (1, 1, 0), the seventh of eight, fails; the
    # others of its lockstep batch start fine.
    def target(t):
        u = pc.single_qubit_unitary(t)
        u[(np.asarray(t) == (1.0, 1.0, 0.0)).all(axis=-1)] = np.nan
        return u

    bad_family = dataclasses.replace(pc.SINGLE_QUBIT, target=target)
    monkeypatch.setattr(calibrate_mod, "get_family", lambda name: bad_family)
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1), seed=3)
    message = r"^initial optimization failed at reference point \(1.0, 1.0, 0.0\): non-finite"
    with pytest.raises(OptimizationError, match=message):
        pc.initial_round(cfg)


def test_coordination_failure_not_first_in_its_wave_names_that_point():
    # The second and third references of a wave fail at their start; the
    # first of the wave, and every earlier wave, run fine.
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), seed=7)
    land = pc.initial_round(cfg)
    order = pc.visit_order([pc.neighbor_penalty(land, i) for i in range(len(land.references))])
    wave = next(w for w in calibrate_mod._waves(land.mesh, order) if len(w) >= 3)
    failing = {tuple(land.references[i].point) for i in wave[1:3]}

    def target(t):
        u = pc.single_qubit_unitary(t)
        u[[tuple(p) in failing for p in t]] = np.nan
        return u

    land.family = dataclasses.replace(pc.SINGLE_QUBIT, target=target)
    where = re.escape(str(tuple(float(c) for c in land.references[wave[1]].point)))
    with pytest.raises(OptimizationError, match=rf"^re-optimization failed at reference point {where}: non-finite"):
        pc.reoptimization_round(land, cfg.opt)


def test_coordination_failure_keeps_the_failing_wave_and_the_log():
    # The second reference of a later wave fails at its start. The waves
    # before it hold the pulses an unbroken round gives them; the failing
    # wave, the waves after it and the log stay as they were.
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), seed=7)
    land = pc.initial_round(cfg)
    order = pc.visit_order([pc.neighbor_penalty(land, i) for i in range(len(land.references))])
    waves = calibrate_mod._waves(land.mesh, order)
    failing = next(k for k, w in enumerate(waves) if k > 0 and len(w) >= 2)
    bad_point = tuple(land.references[waves[failing][1]].point)
    unbroken = pc.reoptimization_round(pc.initial_round(cfg), cfg.opt)
    before, log = list(land.references), list(land.log)

    def target(t):
        u = pc.single_qubit_unitary(t)
        u[[tuple(p) == bad_point for p in t]] = np.nan
        return u

    land.family = dataclasses.replace(pc.SINGLE_QUBIT, target=target)
    where = re.escape(str(tuple(float(c) for c in bad_point)))
    with pytest.raises(OptimizationError, match=rf"^re-optimization failed at reference point {where}"):
        pc.reoptimization_round(land, cfg.opt)
    assert land.log == log
    for k, wave in enumerate(waves):
        for i in wave:
            ref = land.references[i]
            if k < failing:
                assert not np.array_equal(ref.alpha, before[i].alpha)
                assert np.array_equal(ref.alpha, unbroken.references[i].alpha)
                assert ref.infidelity == unbroken.references[i].infidelity
                assert ref.cumulative_iterations == unbroken.references[i].cumulative_iterations
            else:
                assert ref is before[i]


def test_initial_round_rejects_a_target_map_without_batches(monkeypatch):
    family = dataclasses.replace(pc.SINGLE_QUBIT, target=lambda t: np.eye(2, dtype=complex))
    monkeypatch.setattr(calibrate_mod, "get_family", lambda name: family)
    cfg = pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 1))
    with pytest.raises(ValueError, match="must accept a batch"):
        pc.initial_round(cfg)


@pytest.mark.parametrize("granularity", [Fraction(1, 3), Fraction(1, 5)])
def test_chamber_spacing_that_misses_a_corner_is_refused_before_calibrating(granularity):
    with pytest.raises(ValueError, match=r"misses the corner \(1/2, 1/2, 0\)"):
        pc.calibrate(pc.CalibConfig(family="weyl-chamber", granularity=granularity))


@pytest.mark.parametrize("family,granularity", [
    ("weyl-chamber", Fraction(1, 6)), ("cartan-box", Fraction(1, 3)),
    ("single-qubit", Fraction(1, 3)),
])
def test_spacing_whose_lattice_holds_every_corner_calibrates_the_whole_domain(family, granularity):
    cfg = pc.CalibConfig(family=family, granularity=granularity, rounds=1,
                         opt=pc.OptConfig(max_iter=1))
    land = pc.calibrate(cfg)
    assert len(land.log) == 2
    # The mesh reaches every point of a finer grid: none lies outside it.
    summary = pc.evaluate_grid(land, granularity / 2)[1]
    assert summary.count == len(land.family.grid(granularity / 2))


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), rounds=-1)
    with pytest.raises(ValueError):
        pc.CalibConfig(family="single-qubit", granularity=Fraction(1, 2), lam=-0.5)
