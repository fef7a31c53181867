"""Landscape persistence.

One self-describing JSON file per landscape. The ansatz and each round
log entry are written with ``dataclasses.asdict``, so their keys are the
fields of ``ControlAnsatz`` and ``RoundRecord``, in field order, and
read back by one reader that picks each field's parser by its type. A
loader error names the section or record and the field
(``log 2: mean_penalty: ...``, ``simplices 4: ...``, ``seed: missing``).
The iteration counts, the paper's cost metric, must agree: each log
record's ``cumulative_iterations`` is the running sum of ``iterations``,
and the references' ``iterations`` add up to the last.
The loader only parses: numbers go through ``check_number`` (λ through
``check_lambda``), counts ``check_count``, points ``check_domain``, pulses
``check_pulses`` and rows ``from_simplices``. ``save_landscape`` leaves no
partial file: it builds the whole text before it opens the path.
Pulse amplitudes are stored as hex-float strings so reloading reproduces the exact
binary values and interpolation results survive the file boundary
bit-for-bit; the remaining floats rely on JSON's shortest-roundtrip
representation, which is also exact. Files carry a format/version pair checked on load. The
mesh is stored as vertex-index rows and reassembled without
re-triangulating.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import get_type_hints

from .calibrate import Landscape, ReferencePulse, RoundRecord
from .errors import DomainError, FormatError
from .families import get_family
from .mesh import from_simplices
from .pulses import ControlAnsatz, check_count, check_lambda, check_number, check_pulses

FORMAT_NAME = "pulsecal-landscape"
FORMAT_VERSION = 1


def landscape_to_dict(landscape: Landscape) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": landscape.family.name,
        "ansatz": asdict(landscape.ansatz),
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
        "log": [asdict(rec) for rec in landscape.log],
    }


def save_landscape(landscape: Landscape, path) -> None:
    text = json.dumps(landscape_to_dict(landscape), indent=2) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _hex(value) -> float:
    """A hex-float string as a float, exactly."""
    if not isinstance(value, str):
        raise FormatError(f"expected a hex string, got {value!r}")
    return float.fromhex(value)


def _list(value) -> list:
    """A JSON array; a string or an object would iterate as characters or keys."""
    if not isinstance(value, list):
        raise FormatError(f"expected an array, got {type(value).__name__}")
    return value


def _read(where: str, read, value):
    """``read(value)``; a fault in it is a FormatError that names ``where``."""
    try:
        return read(value)
    except (FormatError, DomainError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: {exc}") from None


def _field(entry, where: str, name: str, read=lambda value: value):
    """Field ``name`` of the stored record ``entry``, through ``read``.

    ``where`` names the record; it is empty for the file's top level.
    """
    if not isinstance(entry, dict):
        raise FormatError(f"{where}: expected an object, got {type(entry).__name__}")
    label = f"{where}: {name}" if where else name
    if name not in entry:
        raise FormatError(f"{label}: missing")
    return _read(label, read, entry[name])


def _record(cls, entry, where: str):
    """The stored record ``entry`` as a ``cls``: its fields are the dataclass's."""
    values = {name: _field(entry, where, name, check_count if kind is int else check_number)
              for name, kind in get_type_hints(cls).items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _reference(entry, where: str, family, ansatz: ControlAnsatz) -> ReferencePulse:
    """One ``"references"`` entry, after evolve's and unitary's own checks.

    A file that loads then also evolves and scores. A non-finite coordinate
    fails the number check, a point with the wrong count the domain check,
    and a pulse of the wrong length or out of its box evolve's check.
    """
    point = _field(entry, where, "point",
                   lambda v: family.check_domain([check_number(c) for c in _list(v)]))
    alpha = _field(entry, where, "alpha_hex",
                   lambda v: check_pulses(ansatz, [_hex(h) for h in _list(v)]))
    return ReferencePulse(point, alpha, _field(entry, where, "infidelity", check_number),
                          _field(entry, where, "iterations", check_count))


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
        family = _field(data, "", "family", get_family)
        ansatz = _record(ControlAnsatz, _field(data, "", "ansatz"), "ansatz")
        if ansatz.n_controls != family.model.n_controls:
            raise FormatError(
                f"ansatz has {ansatz.n_controls} controls but family "
                f"{family.name!r} defines {family.model.n_controls}"
            )
        references = [_reference(r, f"reference {k}", family, ansatz)
                      for k, r in enumerate(_field(data, "", "references", _list))]
        simplices = [_read(f"simplices {k}", lambda row: [check_count(i) for i in _list(row)], row)
                     for k, row in enumerate(_field(data, "", "simplices", _list))]
        # A bad row (length, index, volume) raises DomainError; in a file
        # it is a format fault.
        mesh = from_simplices([ref.point for ref in references], simplices)
        log = [_record(RoundRecord, rec, f"log {k}")
               for k, rec in enumerate(_field(data, "", "log", _list))]
        # Every file that pulsecal writes holds its round-0 record, and a
        # new round numbers itself by its place in the log. The iteration
        # counts are the paper's cost metric: each cumulative count is the
        # running sum of the rounds', and every round solves each reference
        # once, so the references' counts add up to the log's total.
        if not log:
            raise FormatError("log: empty, expected the round-0 record")
        total = 0
        for k, rec in enumerate(log):
            total += rec.iterations
            for name, expected in (("round", k), ("cumulative_iterations", total)):
                if getattr(rec, name) != expected:
                    raise FormatError(f"log {k}: {name}: expected {expected}, "
                                      f"got {getattr(rec, name)}")
        if (spent := sum(ref.cumulative_iterations for ref in references)) != total:
            raise FormatError(f"references: iterations: expected a sum of {total}, got {spent}")
        lam = check_lambda(_field(data, "", "lambda"))
        seed = _field(data, "", "seed", check_count)
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
