"""JSON and CSV encodings for the library's value types.

One encoder, _to_json, writes every value: complex matrices and stacks as
row-major nested lists of [re, im] pairs. Every *_to_dict encoder is one
_to_dict call, which applies it to named attributes or dataclass fields.
Schema problems (missing keys, malformed nesting, a value of the wrong
type, a number that is not finite) raise SchemaError, from _require and
matrix_from_json here and from the readers _number, _numbers and _choice
of qmeasure.operators; values that parse but violate physics invariants
raise ValidationError from the constructors instead. SchemaError
subclasses ValidationError, so catching ValidationError catches both.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .edr import EDRReport
from .gaussian import GaussianState, ModelEDR, min_uncertainty_packet
from .instruments import CPInstrument, MeasuringProcess, POVM
from .jpd import JointDistribution, PrecisionReport
from .operators import (
    DEFAULT_CONSTANTS,
    DEFAULT_TOL,
    PhysicalConstants,
    SchemaError,
    Tolerances,
    _number,
    _numbers,
)


def _to_json(value):
    """The JSON form of a value: numbers, bools and strings as they are, a
    tuple as a list, anything else as its array (a state or observable as
    its matrix), nested [re, im] pairs if complex, nested floats if real."""
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    value = np.asarray(value)
    if np.iscomplexobj(value):
        return np.stack([value.real, value.imag], -1).tolist()
    return value.tolist()


# dict keys that differ from the attribute names
_REPORT_KEYS = {"sigma_a": "sigma_A", "sigma_b": "sigma_B", "model_id": "model",
                "kennard_bound": "hbar_over_2"}


def _to_dict(obj, names=None) -> dict:
    """The named attributes of obj, or a dataclass's fields in order, as a
    dict of their _to_json forms, keys renamed by _REPORT_KEYS."""
    names = names or [f.name for f in fields(obj)]
    return {_REPORT_KEYS.get(n, n): _to_json(getattr(obj, n)) for n in names}


def matrix_to_json(m) -> list:
    return _to_json(np.asarray(m, dtype=complex))


def _require(data, *keys, what: str) -> list:
    """The values under keys of an object; raises SchemaError if data is
    not an object or lacks one of the keys."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise SchemaError(f"{what} is missing {key!r}")
    return [data[key] for key in keys]


def matrix_from_json(data) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs of finite numbers, each
    cell checked inline (a _number call per cell would dominate the cost)."""
    if not isinstance(data, list) or not data:
        raise SchemaError("matrix must be a non-empty list of rows")
    rows = []
    width = None
    for row in data:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise SchemaError("matrix rows must be lists of equal length")
        width = len(row)
        vals = []
        for cell in row:
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or not all(type(x) in (int, float) for x in cell)):
                raise SchemaError("matrix entries must be [re, im] pairs of numbers")
            vals.append(complex(cell[0], cell[1]))
        rows.append(vals)
    arr = np.array(rows, dtype=complex)
    if not np.isfinite(arr).all():
        raise SchemaError("matrix entries must be finite numbers")
    return arr


def process_to_dict(mp: MeasuringProcess) -> dict:
    return _to_dict(mp, ("system_dim", "probe_dim", "probe_state", "unitary", "meter"))


def process_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> MeasuringProcess:
    mp = MeasuringProcess(*(matrix_from_json(m) for m in _require(
        data, "probe_state", "unitary", "meter", what="process")), tol=tol)
    for key in ("system_dim", "probe_dim"):
        if key in data and _number(data[key], key, integer=True) != getattr(mp, key):
            raise SchemaError(f"{key} {data[key]} does not match matrices ({getattr(mp, key)})")
    return mp


def instrument_to_dict(inst: CPInstrument) -> dict:
    return _to_dict(inst, ("outcomes", "kraus"))


def instrument_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> CPInstrument:
    outcomes, kraus = _require(data, "outcomes", "kraus", what="instrument")
    if not isinstance(kraus, list) or not all(isinstance(ops, list) for ops in kraus):
        raise SchemaError("kraus must be a list with a list of matrices per outcome")
    return CPInstrument(_numbers(outcomes, "outcomes"),
                        [[matrix_from_json(k) for k in ops] for ops in kraus], tol=tol)


def povm_to_dict(p: POVM) -> dict:
    return _to_dict(p, ("outcomes", "effects"))


def povm_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> POVM:
    outcomes, effects = _require(data, "outcomes", "effects", what="POVM")
    if not isinstance(effects, list):
        raise SchemaError("effects must be a list")
    return POVM(_numbers(outcomes, "outcomes"), [matrix_from_json(e) for e in effects], tol=tol)


def gaussian_state_to_dict(state: GaussianState) -> dict:
    return _to_dict(state, ("mean", "cov"))


def gaussian_state_from_dict(data: dict, constants: PhysicalConstants = DEFAULT_CONSTANTS,
                             tol: Tolerances = DEFAULT_TOL) -> GaussianState:
    """A Gaussian state from {"mean": [q, p], "cov": [[..], [..]]}, or the
    minimum-uncertainty packet of {"packet": {"q", "p", "q1"}}."""
    _require(data, what="Gaussian state")
    if "packet" in data:
        return min_uncertainty_packet(*_require(data["packet"], "q", "p", "q1", what="packet"),
                                      constants=constants)
    mean, cov = _require(data, "mean", "cov", what="Gaussian state")
    if not isinstance(cov, list) or len(cov) != 2:
        raise SchemaError("cov must be a 2x2 array")
    return GaussianState(_numbers(mean, "mean", 2), [_numbers(r, "cov row", 2) for r in cov],
                         constants=constants, tol=tol)


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def edr_report_to_dict(r: EDRReport) -> dict:
    return _to_dict(r)


def model_edr_to_dict(r: ModelEDR) -> dict:
    return _to_dict(r)


def precision_report_to_dict(r: PrecisionReport) -> dict:
    return _to_dict(r)


def jpd_to_dict(jd: JointDistribution) -> dict:
    """Atoms as floats; weights as floats, or as [re, im] pairs when complex."""
    return _to_dict(jd)
