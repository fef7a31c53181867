#!/usr/bin/env python3
"""Benchmark for pulsecal: calibrate, evaluate and serve, end to end.

    python3 perfbench/run.py --workload chamber --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; pulsecal is imported from its
``src`` directory. One round calibrates a landscape, writes it, loads
it back, scores it on the workload's test grid, serves a seeded query
mix from it in a closed loop (one caller, no think time) and answers one
query through the command line. Rounds repeat while the next one is
expected to end within ``--seconds`` (there is always at least one), and
the outputs of every round are checked with the independent checker in
``checker.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the first round runs untraced and later rounds run
under the tracer in ``tracer.py``, and the metrics are per layer.

``--seed`` makes the query mix. The calibration seed is the acceptance
suite's for each workload unless ``--calibration-seed`` sets another;
the acceptance bounds are enforced only at the default.
"""

import os
import sys

# One thread everywhere, set before numpy loads: pulsecal's pools read
# PULSECAL_THREADS, and BLAS reads its own variables once at import.
for _var in ("PULSECAL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402  (this directory is the script's, first on sys.path)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    family: str
    granularity: Fraction
    rounds: int
    calibration_seed: int
    max_iter: int
    test_granularity: Fraction
    queries: int
    cycles: int  # evaluations, query passes and set-ups after each calibration
    on_branch: bool  # every reference must implement V(t) itself
    bounds: dict = field(default_factory=dict)  # acceptance, at the default seed


WORKLOADS = {
    # The paper's headline run: 4x4 propagators, 5 controls; coordination
    # rounds dominate calibration and the kernel dominates them.
    "chamber": Workload("weyl-chamber", Fraction(1, 4), 10, 42, 50, Fraction(1, 24),
                        2000, 1, True, {"mean": 1e-3}),
    # 2x2 problems: the optimizer's own Python and the initial round
    # weigh more, and 371 simplices make locate a quarter of evaluation.
    "single-qubit": Workload("single-qubit", Fraction(1, 4), 3, 0, 50, Fraction(1, 12),
                             2000, 5, True, {"mean": 1e-3, "max": 1e-2, "iterations": 20000}),
    # Serving from the acceptance-size box (343 references, 1,260
    # simplices). Its landscape comes from an initial round capped at one
    # optimizer step: seeded, in-bounds pulses from pulsecal itself, since
    # serving time does not depend on the pulse values.
    "serve": Workload("cartan-box", Fraction(1, 6), 0, 0, 1, Fraction(1, 12),
                      2000, 2, False),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "calibrate_s": "s",
    "calibrate_iterations": "count",
    "evaluate_s": "s",
    "mean_infidelity": "1",
    "max_infidelity": "1",
    "serve_p50_us": "us",
    "serve_p99_us": "us",
    "serve_qps": "1/s",
    "peak_rss_mb": "MB",
}


def query_mix(w: Workload, seed: int):
    """Seeded queries: uniform in the domain, every eighth a reference point."""
    rng = np.random.default_rng(seed)
    inside = []
    while len(inside) < w.queries:
        tx, ty, tz = rng.random(3)
        if w.family != "weyl-chamber" or (ty <= min(tx, 1 - tx) and tz <= ty):
            inside.append((tx, ty, tz))
    refs = checker.lattice(w.family, w.granularity)
    for i in range(0, w.queries, 8):
        inside[i] = refs[int(rng.integers(len(refs)))]
    return np.array(inside)


class Cycles:
    """Scores and serves the loaded landscape, once per call of ``run``.

    On a shared host, speed drifts by tens of percent in spells of
    seconds, so the short figures are sampled all through a run: after every
    calibration, and, between rounds, before every second coordination
    round (see ``PausePoints``). Each cycle is one ``evaluate_grid``, one
    pass over the query mix and, when ``setup`` is true, one set-up
    measurement. Every cycle must score and serve exactly as the first.
    """

    def __init__(self, w, pc, path, queries, setup: bool):
        self.w, self.pc, self.path, self.queries, self.setup = w, pc, path, queries, setup
        self.loaded = None
        self.evaluate_s, self.latencies, self.serve_s, self.setup_s = [], [], [], []
        self.records = self.summary = self.served = None
        self.agree = True

    def run(self) -> None:
        t = time.perf_counter()
        records, summary = self.pc.evaluate.evaluate_grid(self.loaded, self.w.test_granularity)
        self.evaluate_s.append(time.perf_counter() - t)
        served = np.empty((len(self.queries), self.loaded.ansatz.n_params))
        lat = [0.0] * len(self.queries)
        interpolate, loaded = self.pc.evaluate.interpolate, self.loaded
        t = time.perf_counter()
        for i, q in enumerate(self.queries):
            t0 = time.perf_counter()
            alpha = interpolate(loaded, q)
            lat[i] = time.perf_counter() - t0
            served[i] = alpha
        self.serve_s.append(time.perf_counter() - t)
        self.latencies.append(lat)
        if self.setup:
            self.setup_s.append(setup_seconds(self.path))
        if self.summary is None:
            self.records, self.summary, self.served = records, summary, served
        else:
            self.agree &= summary == self.summary and np.array_equal(served, self.served)


class PausePoints:
    """Runs a cycle before every second coordination round, off the clock.

    Wraps ``pulsecal.calibrate.reoptimization_round`` where ``calibrate``
    looks it up, as the tracer does. ``paused`` is the time the cycles
    took, which ``calibrate_s`` leaves out. Without the function, or
    before ``cycle`` is set, calibration runs untouched.
    """

    def __init__(self, module):
        self.cycle = None
        self.paused = 0.0
        self.count = 0  # coordination rounds seen in this calibration
        self._original = getattr(module, "reoptimization_round", None)
        if self._original is not None:
            module.reoptimization_round = self._round

    def _round(self, *args, **kwargs):
        self.count += 1
        if self.cycle is not None and self.count % 2 == 0:
            t = time.perf_counter()
            self.cycle()
            self.paused += time.perf_counter() - t
        return self._original(*args, **kwargs)


@dataclass
class RoundResult:
    calibrate_s: float
    wall_s: float
    landscape: object
    loaded: object
    file_bytes: bytes
    cli_alpha_hex: list


def run_round(w, pc, cfg, path, queries, cycles, pauses=None, tracer=None) -> RoundResult:
    """One whole round; the tracer, if given, is active for its timed parts."""
    if tracer is not None:
        tracer.active = True
    try:
        paused = 0.0
        if pauses is not None:
            pauses.count, paused = 0, pauses.paused
        start = time.perf_counter()
        land = pc.calibrate.calibrate(cfg)
        calibrate_s = time.perf_counter() - start - (pauses.paused - paused if pauses else 0.0)
        pc.io.save_landscape(land, path)
        cycles.loaded = pc.io.load_landscape(path)
        for _ in range(w.cycles):
            cycles.run()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pc.cli.main(["interpolate", "--landscape", str(path),
                                "--point", ",".join(repr(float(c)) for c in queries[1])])
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.active = False
    if pauses is not None:
        pauses.cycle = cycles.run
    if code != 0:
        raise RuntimeError(f"pulsecal interpolate exited {code}")
    return RoundResult(calibrate_s, wall_s, land, cycles.loaded, Path(path).read_bytes(),
                       json.loads(out.getvalue())["alpha_hex"])


def check_first_round(w, pc, r: RoundResult, cycles: Cycles, path, queries, default_seed) -> list:
    """Check one round's outputs with the independent checker."""
    faults = []
    land = checker.read_landscape(path)
    faults += checker.reference_faults(land, on_branch=w.on_branch)

    # The loaded landscape equals the written one bit for bit.
    for name, a, b in (
        ("points", r.landscape.points, r.loaded.points),
        ("pulses", np.stack([x.alpha for x in r.landscape.references]),
         np.stack([x.alpha for x in r.loaded.references])),
        ("simplices", r.landscape.mesh.simplices, r.loaded.mesh.simplices),
        ("infidelities", np.array([x.infidelity for x in r.landscape.references]),
         np.array([x.infidelity for x in r.loaded.references])),
    ):
        if not checker.same_bits(a, b):
            faults.append(f"loaded {name} differ from the written landscape")
    if r.landscape.log != r.loaded.log or r.landscape.lam != r.loaded.lam:
        faults.append("loaded log or lambda differ from the written landscape")
    if not checker.same_bits(land.alphas, np.stack([x.alpha for x in r.landscape.references])):
        faults.append("the file's pulses differ from the calibrated landscape")

    iterations = r.landscape.cumulative_iterations
    if iterations != sum(rec.iterations for rec in r.landscape.log):
        faults.append("calibrate_iterations is not the sum of the round log")
    if iterations != sum(x.cumulative_iterations for x in r.landscape.references):
        faults.append("calibrate_iterations is not the sum of the references' iterations")

    # Interpolating at each reference point returns its pulse bit for bit.
    for i, ref in enumerate(r.loaded.references):
        if not checker.same_bits(pc.evaluate.interpolate(r.loaded, ref.point), land.alphas[i]):
            faults.append(f"interpolation at reference {i} is not its pulse")
            break

    points = np.array([rec.point for rec in cycles.records])
    infids = np.array([rec.infidelity for rec in cycles.records])
    if not np.array_equal(points, np.array(checker.lattice(w.family, w.test_granularity))):
        faults.append("evaluate_grid did not score the whole test lattice")
    summary = cycles.summary
    if summary.mean_infidelity != float(infids.mean()) or summary.max_infidelity != float(infids.max()):
        faults.append("evaluation summary disagrees with its own records")
    faults += checker.evaluation_faults(land, points, infids, summary.mean_infidelity,
                                        summary.max_infidelity)

    index = {tuple(p): i for i, p in enumerate(land.points.tolist())}
    vertex_of = [index.get(tuple(q), -1) for q in queries.tolist()]
    if sum(v >= 0 for v in vertex_of) != len(range(0, w.queries, 8)):
        faults.append("vertex queries do not match the reference points")
    faults += checker.serving_faults(land, queries, cycles.served, vertex_of)
    if r.cli_alpha_hex != [float(a).hex() for a in cycles.served[1]]:
        faults.append("the command line serves another pulse than interpolate")

    if default_seed:
        b = w.bounds
        if "mean" in b and summary.mean_infidelity > b["mean"]:
            faults.append(f"mean infidelity {summary.mean_infidelity:.4e} > {b['mean']}")
        if "max" in b and summary.max_infidelity > b["max"]:
            faults.append(f"max infidelity {summary.max_infidelity:.4e} > {b['max']}")
        if "iterations" in b and iterations > b["iterations"]:
            faults.append(f"{iterations} iterations > {b['iterations']}")
    return faults


SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import pulsecal.io
pulsecal.io.load_landscape(sys.argv[1])
print(repr(time.perf_counter() - t))
"""


def setup_seconds(path) -> float:
    """A fresh interpreter's import of pulsecal plus load_landscape."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(path)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, rounds: int, untraced_wall: float, traced_wall: float,
                  span_cost_s: float, landscape_bytes: int) -> dict:
    """Per-layer metrics from the traced rounds.

    Counts and most times are per round: one calibration, ``cycles``
    evaluations and query passes, one command-line query. Names ending
    in ``.us``, and the io, cli, coordination-round and evaluate_grid
    times, are per call.
    """
    totals = tracer.totals()

    def t(name):
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_call_us(name):
        calls = t(name)["calls"]
        return t(name)["s"] / calls * 1e6 if calls else 0.0

    def per_call_s(name):
        calls = t(name)["calls"]
        return t(name)["s"] / calls if calls else 0.0

    def per_call_self_s(name):
        calls = t(name)["calls"]
        return t(name)["self_s"] / calls if calls else 0.0

    notes = tracer.notes("optimize.minimize")
    iterations = sum(n[0] for n in notes)
    evaluations = sum(n[1] for n in notes)
    stops = {reason: sum(n[2] == reason for n in notes) for reason in ("max_iter", "stall", "grad_tol")}
    spans = len(tracer.spans)
    m = {
        "pulses.cost_and_gradient.calls": (t("pulses.cost_and_gradient")["calls"] / rounds, "count"),
        "pulses.cost_and_gradient.us": (per_call_us("pulses.cost_and_gradient"), "us"),
        "pulses.evolve.calls": (t("pulses.evolve")["calls"] / rounds, "count"),
        "pulses.evolve.us": (per_call_us("pulses.evolve"), "us"),
        "optimize.minimize.calls": (t("optimize.minimize")["calls"] / rounds, "count"),
        "optimize.minimize.self_s": (t("optimize.minimize")["self_s"] / rounds, "s"),
        "optimize.evaluations": (evaluations / rounds, "count"),
        "optimize.evaluations_per_iteration": (evaluations / iterations if iterations else 0.0, "1"),
        "optimize.stop.max_iter": (stops["max_iter"] / rounds, "count"),
        "optimize.stop.stall": (stops["stall"] / rounds, "count"),
        "optimize.stop.grad_tol": (stops["grad_tol"] / rounds, "count"),
        "calibrate.initial_round_s": (t("calibrate.initial_round")["s"] / rounds, "s"),
        "calibrate.coordination_round_s": (per_call_s("calibrate.reoptimization_round"), "s"),
        "calibrate.self_s": (sum(t(n)["self_s"] for n in ("calibrate.calibrate", "calibrate.initial_round",
                                                          "calibrate.reoptimization_round")) / rounds, "s"),
        "mesh.build_mesh_s": (t("mesh.build_mesh")["s"] / rounds, "s"),
        "mesh.locate.calls": (t("mesh.locate")["calls"] / rounds, "count"),
        "mesh.locate.us": (per_call_us("mesh.locate"), "us"),
        "families.grid_s": (t("families.grid")["s"] / rounds, "s"),
        "families.unitary.calls": (t("families.unitary")["calls"] / rounds, "count"),
        "families.unitary.us": (per_call_us("families.unitary"), "us"),
        "evaluate.evaluate_grid.self_s": (per_call_self_s("evaluate.evaluate_grid"), "s"),
        "evaluate.interpolate.us": (per_call_us("evaluate.interpolate"), "us"),
        "io.load_landscape_s": (per_call_s("io.load_landscape"), "s"),
        "io.save_landscape_s": (per_call_s("io.save_landscape"), "s"),
        "io.landscape_bytes": (landscape_bytes, "bytes"),
        "cli.interpolate_s": (per_call_s("cli.main"), "s"),
        "trace.calibrate_s": (t("calibrate.calibrate")["s"] / rounds, "s"),
        "trace.evaluate_s": (per_call_s("evaluate.evaluate_grid"), "s"),
        "trace.spans": (spans / rounds, "count"),
        "trace.overhead_pct": ((traced_wall / untraced_wall - 1.0) * 100.0, "%"),
        "trace.span_cost_pct": (spans * span_cost_s / (traced_wall * rounds) * 100.0, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# The calls the benchmark makes itself; every other span needs a parent.
ROOTS = {"calibrate.calibrate", "evaluate.evaluate_grid", "evaluate.interpolate",
         "io.save_landscape", "io.load_landscape", "cli.main"}


def span_cost(tracer_cls) -> float:
    """Seconds one active span adds to a call, measured on a no-op."""
    class Owner:
        @staticmethod
        def noop():
            return None

    probe = tracer_cls()
    wrapped = probe.wrap("probe", Owner.noop)
    probe.active = True
    n = 20000
    t = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        Owner.noop()
    bare = time.perf_counter() - t
    return max(traced - bare, 0.0) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibration-seed", type=int, default=None)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (SRC / "pulsecal" / "__init__.py").is_file():
        print(f"error: no pulsecal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pulsecal

    if Path(pulsecal.__file__).resolve().parent != (SRC / "pulsecal").resolve():
        print(f"error: pulsecal imported from {pulsecal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Modules, not the names pulsecal/__init__.py re-exports, so that
    # every call goes through the attributes the tracer wraps.
    pc = SimpleNamespace(**{m: importlib.import_module(f"pulsecal.{m}")
                            for m in ("calibrate", "evaluate", "io", "cli")})
    calibration_seed = w.calibration_seed if args.calibration_seed is None else args.calibration_seed
    cfg = pulsecal.CalibConfig(
        family=w.family, granularity=w.granularity, rounds=w.rounds,
        opt=pulsecal.OptConfig(max_iter=w.max_iter), seed=calibration_seed,
    )
    queries = query_mix(w, args.seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"landscape-{args.workload}.json"

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    cycles = Cycles(w, pc, path, queries, setup=tracer is None)
    pauses = PausePoints(pc.calibrate) if tracer is None else None
    results, faults = [], []
    failed = 0
    peak_rss_mb = None
    begin = time.perf_counter()
    while True:
        traced = tracer if (tracer is not None and results) else None
        round_start = time.perf_counter()
        try:
            r = run_round(w, pc, cfg, path, queries, cycles, pauses, traced)
        except Exception:
            traceback.print_exc()
            failed = 1  # the round that raised, counted as one operation
            break
        if not results:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            faults += check_first_round(w, pc, r, cycles, path, queries,
                                        calibration_seed == w.calibration_seed)
        elif r.file_bytes != results[0].file_bytes or r.cli_alpha_hex != results[0].cli_alpha_hex:
            faults.append(f"round {len(results) + 1} differs from round 1")
        results.append(r)
        elapsed = time.perf_counter() - begin
        last = time.perf_counter() - round_start
        if tracer is not None and len(results) < 2:
            continue
        if elapsed + last > args.seconds:
            break
    if not cycles.agree:
        faults.append("repeated evaluations or query passes disagree")
    # Per round: calibrate, save, load and the command-line query; per
    # cycle: an evaluation and each query.
    attempted = 4 * len(results) + len(cycles.evaluate_s) * (1 + w.queries) + failed

    correct = bool(results) and not faults and failed == 0
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)

    metrics = {}
    if results and tracer is None:
        # Serving figures are medians over the query passes, so that one
        # pass caught by a slow spell of the machine does not set them.
        values = {
            "setup_s": statistics.median(cycles.setup_s),
            "calibrate_s": statistics.median(r.calibrate_s for r in results),
            "calibrate_iterations": results[0].landscape.cumulative_iterations,
            "evaluate_s": statistics.median(cycles.evaluate_s),
            "mean_infidelity": cycles.summary.mean_infidelity,
            "max_infidelity": cycles.summary.max_infidelity,
            "serve_p50_us": statistics.median(np.percentile(p, 50) for p in cycles.latencies) * 1e6,
            "serve_p99_us": statistics.median(np.percentile(p, 99) for p in cycles.latencies) * 1e6,
            "serve_qps": statistics.median(w.queries / x for x in cycles.serve_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{args.workload}: {len(results)} rounds, {len(cycles.evaluate_s)} cycles, calibrate "
              f"{[round(r.calibrate_s, 3) for r in results]}", file=sys.stderr)
    elif len(results) >= 2:
        import tracer as tracing
        orphans = tracer.orphans(ROOTS)
        if orphans:
            print(f"check failed: {len(orphans)} traced calls have no parent span, "
                  f"e.g. {orphans[0]}", file=sys.stderr)
            correct = False
        traced_rounds = results[1:]
        metrics = layer_metrics(
            tracer, len(traced_rounds), results[0].wall_s,
            statistics.mean(r.wall_s for r in traced_rounds), span_cost(tracing.Tracer),
            len(results[0].file_bytes))
        summary = {k: v["value"] for k, v in metrics.items()}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", summary)
        if tracer.absent:
            print(f"absent from pulsecal: {', '.join(tracer.absent)}", file=sys.stderr)
        tracer.uninstall()

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
