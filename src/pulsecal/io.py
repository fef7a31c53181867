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
import math

import numpy as np

from .calibrate import Landscape, ReferencePulse, RoundRecord
from .errors import DomainError, FormatError
from .families import get_family
from .mesh import from_simplices
from .pulses import ControlAnsatz, check_pulses

FORMAT_NAME = "pulsecal-landscape"
FORMAT_VERSION = 1


def ansatz_to_dict(ansatz: ControlAnsatz) -> dict:
    """The ``"ansatz"`` entry of landscape files and served pulses."""
    return {
        "n_controls": ansatz.n_controls,
        "n_segments": ansatz.n_segments,
        "duration": ansatz.duration,
        "alpha_max": ansatz.alpha_max,
    }


def landscape_to_dict(landscape: Landscape) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": landscape.family.name,
        "ansatz": ansatz_to_dict(landscape.ansatz),
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


def _number(value) -> float:
    """A JSON number as a float, exactly.

    A string or a boolean, which float() would convert, and an integer
    that no float holds exactly are FormatErrors.
    """
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= 2**53:
        return float(value)
    raise FormatError(f"expected a number, got {value!r}")


def _float(value) -> float:
    """A finite JSON number as a float, exactly; NaN and +-inf are FormatErrors."""
    x = _number(value)
    if not math.isfinite(x):
        raise FormatError(f"expected a finite number, got {value!r}")
    return x


def _count(value) -> int:
    """A JSON integer, as a count or an index.

    A fraction, which int() would truncate, a string and a boolean are
    FormatErrors.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FormatError(f"expected an integer, got {value!r}")


def _list(value) -> list:
    """A JSON array; a string or an object would iterate as characters or keys."""
    if not isinstance(value, list):
        raise FormatError(f"expected an array, got {type(value).__name__}")
    return value


def landscape_from_dict(data: dict) -> Landscape:
    try:
        if data.get("format") != FORMAT_NAME:
            raise FormatError(f"not a {FORMAT_NAME} file")
        version = data.get("version")
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise FormatError(
                f"unsupported landscape version {version!r}, "
                f"expected {FORMAT_VERSION}"
            )
        family = get_family(data["family"])
        a = data["ansatz"]
        ansatz = ControlAnsatz(
            n_controls=_count(a["n_controls"]),
            n_segments=_count(a["n_segments"]),
            duration=_float(a["duration"]),
            alpha_max=_float(a["alpha_max"]),
        )
        if ansatz.n_controls != family.model.n_controls:
            raise FormatError(
                f"ansatz has {ansatz.n_controls} controls but family "
                f"{family.name!r} defines {family.model.n_controls}"
            )
        # A non-finite coordinate is left to the domain check below,
        # which names the family's domain.
        references = [
            ReferencePulse(
                point=np.array([_number(c) for c in _list(r["point"])], dtype=float),
                alpha=np.array([float.fromhex(h) for h in _list(r["alpha_hex"])]),
                infidelity=_float(r["infidelity"]),
                cumulative_iterations=_count(r["iterations"]),
            )
            for r in _list(data["references"])
        ]
        for k, ref in enumerate(references):
            if ref.point.shape != (3,):
                raise FormatError(f"reference {k}: point has {len(ref.point)} components, "
                                  "expected 3")
            if ref.alpha.shape != (ansatz.n_params,):
                raise FormatError("reference pulse length does not match ansatz")
        # evolve's and unitary's own checks: a file that loads also evolves and scores.
        check_pulses(ansatz, [ref.alpha for ref in references])
        points = family.check_domain([r.point for r in references])
        # A row naming a missing vertex, or a degenerate simplex, raises
        # DomainError; in a file it is a format fault.
        simplices = [[_count(i) for i in _list(row)] for row in _list(data["simplices"])]
        mesh = from_simplices(points, simplices)
        log = [
            RoundRecord(
                round_index=_count(rec["round"]),
                iterations=_count(rec["iterations"]),
                cumulative_iterations=_count(rec["cumulative_iterations"]),
                mean_infidelity=_float(rec["mean_infidelity"]),
                max_infidelity=_float(rec["max_infidelity"]),
                mean_penalty=_float(rec["mean_penalty"]),
            )
            for rec in _list(data["log"])
        ]
        lam = _float(data["lambda"])
        seed = _count(data["seed"])
    # OverflowError: a hex amplitude past the float range, or a vertex
    # index past 64 bits.
    except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
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
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    # Bytes that are not UTF-8 raise UnicodeDecodeError, bad JSON
    # JSONDecodeError: both are ValueErrors.
    except ValueError as exc:
        raise FormatError(f"corrupt landscape file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"corrupt landscape file {path}: expected an object")
    return landscape_from_dict(data)
