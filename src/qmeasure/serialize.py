"""JSON and CSV encodings for the library's value types.

Complex matrices serialize as row-major nested lists of [re, im] pairs.
Schema problems (missing keys, malformed nesting) raise SchemaError;
values that parse but violate physics invariants raise ValidationError
from the constructors instead.
"""

from __future__ import annotations

import numpy as np

from .edr import EDRReport
from .gaussian import GaussianState, ModelEDR
from .instruments import CPInstrument, MeasuringProcess, POVM
from .jpd import JointDistribution, PrecisionReport, WeakJointDistribution
from .operators import (
    DEFAULT_CONSTANTS,
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    PhysicalConstants,
    Tolerances,
)


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


def matrix_to_json(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data) -> np.ndarray:
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
                    or not all(isinstance(x, (int, float)) for x in cell)):
                raise SchemaError("matrix entries must be [re, im] pairs")
            vals.append(complex(cell[0], cell[1]))
        rows.append(vals)
    return np.array(rows, dtype=complex)


def _require(data: dict, key: str):
    if not isinstance(data, dict):
        raise SchemaError(f"expected an object with key {key!r}")
    if key not in data:
        raise SchemaError(f"missing key {key!r}")
    return data[key]


def process_to_dict(mp: MeasuringProcess) -> dict:
    return {
        "system_dim": mp.system_dim,
        "probe_dim": mp.probe_dim,
        "probe_state": matrix_to_json(mp.probe_state.matrix),
        "unitary": matrix_to_json(mp.unitary),
        "meter": matrix_to_json(mp.meter.matrix),
    }


def process_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> MeasuringProcess:
    probe = DensityOperator(matrix_from_json(_require(data, "probe_state")), tol=tol)
    unitary = matrix_from_json(_require(data, "unitary"))
    meter = HermitianObservable(matrix_from_json(_require(data, "meter")), tol=tol)
    mp = MeasuringProcess(probe, unitary, meter, tol=tol)
    for key in ("system_dim", "probe_dim"):
        if key in data and int(data[key]) != getattr(mp, key):
            raise SchemaError(f"{key} {data[key]} does not match matrices ({getattr(mp, key)})")
    return mp


def instrument_to_dict(inst: CPInstrument) -> dict:
    return {
        "outcomes": list(inst.outcomes),
        "kraus": [[matrix_to_json(k) for k in ops] for ops in inst.kraus],
    }


def instrument_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> CPInstrument:
    outcomes = _require(data, "outcomes")
    kraus_data = _require(data, "kraus")
    if not isinstance(outcomes, list) or not isinstance(kraus_data, list):
        raise SchemaError("outcomes and kraus must be lists")
    if not all(isinstance(x, (int, float)) for x in outcomes):
        raise SchemaError("outcomes must be numbers")
    kraus = []
    for ops in kraus_data:
        if not isinstance(ops, list):
            raise SchemaError("each outcome's Kraus entry must be a list of matrices")
        kraus.append([matrix_from_json(k) for k in ops])
    return CPInstrument(outcomes, kraus, tol=tol)


def povm_to_dict(p: POVM) -> dict:
    return {
        "outcomes": list(p.outcomes),
        "effects": [matrix_to_json(e) for e in p.effects],
    }


def povm_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL) -> POVM:
    outcomes = _require(data, "outcomes")
    effects = _require(data, "effects")
    if not isinstance(outcomes, list) or not isinstance(effects, list):
        raise SchemaError("outcomes and effects must be lists")
    return POVM(outcomes, [matrix_from_json(e) for e in effects], tol=tol)


def gaussian_state_to_dict(state: GaussianState) -> dict:
    return {
        "mean": [float(x) for x in state.mean],
        "cov": [[float(x) for x in row] for row in state.cov],
    }


def gaussian_state_from_dict(data: dict, constants: PhysicalConstants = DEFAULT_CONSTANTS,
                             tol: Tolerances = DEFAULT_TOL) -> GaussianState:
    mean = _require(data, "mean")
    cov = _require(data, "cov")
    if (not isinstance(mean, list) or len(mean) != 2
            or not all(isinstance(x, (int, float)) for x in mean)):
        raise SchemaError("mean must be [q, p]")
    if (not isinstance(cov, list) or len(cov) != 2
            or not all(isinstance(r, list) and len(r) == 2 for r in cov)):
        raise SchemaError("cov must be a 2x2 array")
    return GaussianState(mean, cov, constants=constants, tol=tol)


EDR_CSV_COLUMNS = [
    "epsilon", "eta", "sigma_A", "sigma_B", "robertson", "correlation_term",
    "heisenberg_product", "uedr_lhs", "oedr_lhs",
    "heisenberg_holds", "uedr_holds", "oedr_holds",
]


def edr_report_to_dict(r: EDRReport) -> dict:
    return {
        "epsilon": r.epsilon,
        "eta": r.eta,
        "sigma_A": r.sigma_a,
        "sigma_B": r.sigma_b,
        "robertson": r.robertson,
        "correlation_term": r.correlation_term,
        "heisenberg_product": r.heisenberg_product,
        "uedr_lhs": r.uedr_lhs,
        "oedr_lhs": r.oedr_lhs,
        "heisenberg_holds": r.heisenberg_holds,
        "uedr_holds": r.uedr_holds,
        "oedr_holds": r.oedr_holds,
    }


def edr_report_csv_row(r: EDRReport) -> list:
    d = edr_report_to_dict(r)
    return [_csv_cell(d[c]) for c in EDR_CSV_COLUMNS]


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def model_edr_to_dict(r: ModelEDR) -> dict:
    return {
        "model": r.model_id,
        "epsilon": r.epsilon,
        "eta": r.eta,
        "product": r.product,
        "hbar_over_2": r.kennard_bound,
        "heisenberg_violated": r.heisenberg_violated,
    }


MODEL_EDR_CSV_COLUMNS = ["model", "epsilon", "eta", "product", "hbar_over_2", "heisenberg_violated"]


def model_edr_csv_row(r: ModelEDR) -> list:
    d = model_edr_to_dict(r)
    return [_csv_cell(d[c]) for c in MODEL_EDR_CSV_COLUMNS]


PRECISION_CSV_COLUMNS = ["strong_precise", "weak_precise", "eps_zero_on_cyclic", "prob_repro_on_cyclic"]


def precision_report_to_dict(r: PrecisionReport) -> dict:
    return {
        "strong_precise": r.strong_precise,
        "weak_precise": r.weak_precise,
        "eps_zero_on_cyclic": r.eps_zero_on_cyclic,
        "prob_repro_on_cyclic": r.prob_repro_on_cyclic,
    }


def precision_report_csv_row(r: PrecisionReport) -> list:
    d = precision_report_to_dict(r)
    return [_csv_cell(d[c]) for c in PRECISION_CSV_COLUMNS]


def jpd_to_dict(jd: JointDistribution) -> dict:
    return {
        "x_atoms": [float(x) for x in jd.x_atoms],
        "y_atoms": [float(y) for y in jd.y_atoms],
        "weights": [[float(w) for w in row] for row in jd.weights],
    }


def weak_jpd_to_dict(jd: WeakJointDistribution) -> dict:
    return {
        "x_atoms": [float(x) for x in jd.x_atoms],
        "y_atoms": [float(y) for y in jd.y_atoms],
        "weights": [[[float(w.real), float(w.imag)] for w in row] for row in jd.weights],
    }
