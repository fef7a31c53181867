"""Landscape persistence.

One self-describing JSON file per landscape. Pulse amplitudes are stored
as hex-float strings so reloading reproduces the exact binary values and
interpolation results survive the file boundary bit-for-bit; the
remaining floats rely on JSON's shortest-roundtrip representation, which
is also exact. Files carry a format/version pair checked on load. The
mesh is stored as vertex-index rows and reassembled without
re-triangulating.
"""

from __future__ import annotations

import json

import numpy as np

from .calibrate import Landscape, ReferencePulse, RoundRecord
from .errors import FormatError
from .families import get_family
from .mesh import from_simplices
from .pulses import ControlAnsatz

FORMAT_NAME = "pulsecal-landscape"
FORMAT_VERSION = 1


def landscape_to_dict(landscape: Landscape) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": landscape.family.name,
        "ansatz": {
            "n_controls": landscape.ansatz.n_controls,
            "n_segments": landscape.ansatz.n_segments,
            "duration": landscape.ansatz.duration,
            "alpha_max": landscape.ansatz.alpha_max,
        },
        "lambda": landscape.lam,
        "seed": landscape.seed,
        "references": [
            {
                "point": [float(c) for c in ref.point],
                "alpha_hex": [float(a).hex() for a in ref.alpha],
                "infidelity": ref.infidelity,
                "iterations": ref.cumulative_iterations,
            }
            for ref in landscape.references
        ],
        "simplices": [[int(i) for i in row] for row in landscape.mesh.simplices],
        "log": [
            {
                "round": rec.round_index,
                "iterations": rec.iterations,
                "cumulative_iterations": rec.cumulative_iterations,
                "mean_infidelity": rec.mean_infidelity,
                "max_infidelity": rec.max_infidelity,
                "mean_penalty": rec.mean_penalty,
            }
            for rec in landscape.log
        ],
    }


def save_landscape(landscape: Landscape, path) -> None:
    with open(path, "w") as f:
        json.dump(landscape_to_dict(landscape), f, indent=2)
        f.write("\n")


def landscape_from_dict(data: dict) -> Landscape:
    try:
        if data.get("format") != FORMAT_NAME:
            raise FormatError(f"not a {FORMAT_NAME} file")
        if data.get("version") != FORMAT_VERSION:
            raise FormatError(
                f"unsupported landscape version {data.get('version')!r}, "
                f"expected {FORMAT_VERSION}"
            )
        family = get_family(data["family"])
        a = data["ansatz"]
        ansatz = ControlAnsatz(
            n_controls=int(a["n_controls"]),
            n_segments=int(a["n_segments"]),
            duration=float(a["duration"]),
            alpha_max=float(a["alpha_max"]),
        )
        if ansatz.n_controls != family.n_controls:
            raise FormatError(
                f"ansatz has {ansatz.n_controls} controls but family "
                f"{family.name!r} defines {family.n_controls}"
            )
        references = [
            ReferencePulse(
                point=np.array(r["point"], dtype=float),
                alpha=np.array([float.fromhex(h) for h in r["alpha_hex"]]),
                infidelity=float(r["infidelity"]),
                cumulative_iterations=int(r["iterations"]),
            )
            for r in data["references"]
        ]
        for ref in references:
            if ref.alpha.shape != (ansatz.n_params,):
                raise FormatError("reference pulse length does not match ansatz")
        # The bound and its slack are evolve's; NaN fails the comparison.
        amplitudes = np.array([ref.alpha for ref in references])
        if not np.all(np.abs(amplitudes) <= ansatz.alpha_max * (1 + 1e-12)):
            raise FormatError(
                f"reference pulse amplitudes must be finite and within "
                f"+-{ansatz.alpha_max}"
            )
        points = np.array([r.point for r in references])
        mesh = from_simplices(points, data["simplices"])
        log = [
            RoundRecord(
                round_index=int(rec["round"]),
                iterations=int(rec["iterations"]),
                cumulative_iterations=int(rec["cumulative_iterations"]),
                mean_infidelity=float(rec["mean_infidelity"]),
                max_infidelity=float(rec["max_infidelity"]),
                mean_penalty=float(rec["mean_penalty"]),
            )
            for rec in data["log"]
        ]
        lam = float(data["lambda"])
        seed = int(data["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed landscape file: {exc}") from exc
    return Landscape(
        family=family,
        ansatz=ansatz,
        lam=lam,
        references=references,
        mesh=mesh,
        log=log,
        seed=seed,
    )


def load_landscape(path) -> Landscape:
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt landscape file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"corrupt landscape file {path}: expected an object")
    return landscape_from_dict(data)
