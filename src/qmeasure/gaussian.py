"""Exactly solvable Gaussian position-measurement models.

Everything here is moment-level: a Gaussian state is a mean vector and a
2x2 covariance matrix for one canonical pair, and a measurement model is
a 4x4 symplectic matrix acting on the stacked variables (x, p_x, y, p_y),
object first, probe second, with the coupling-time product fixed so the
meter reads the object position in one shot.

Two built-in models:

- "von_neumann": x -> x, y -> x + y, p_x -> p_x - p_y, p_y -> p_y.
  The meter picks up the object position, the object momentum absorbs
  the probe momentum, and error times disturbance is bounded below by
  hbar/2, saturated by minimum-uncertainty probes.

- "ozawa_1988": x -> x - y, y -> x, p_x -> -p_y, p_y -> p_x + p_y.
  The meter reads the object position exactly (zero rms error), all
  back-action lands in the conjugate variables, and the error-disturbance
  product is identically zero, strictly below hbar/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_CONSTANTS,
    DEFAULT_TOL,
    PhysicalConstants,
    Tolerances,
    ValidationError,
    _Immutable,
    _as_array,
    _choice,
    _numbers,
    _slack,
    operator_distance,
)

VON_NEUMANN = "von_neumann"
OZAWA_1988 = "ozawa_1988"

# canonical symplectic form on (x, p_x, y, p_y)
_J = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

_MODEL_MATRICES = {
    VON_NEUMANN: np.array([
        [1.0, 0.0, 0.0, 0.0],   # x(dt)   = x
        [0.0, 1.0, 0.0, -1.0],  # p_x(dt) = p_x - p_y
        [1.0, 0.0, 1.0, 0.0],   # y(dt)   = x + y
        [0.0, 0.0, 0.0, 1.0],   # p_y(dt) = p_y
    ]),
    OZAWA_1988: np.array([
        [1.0, 0.0, -1.0, 0.0],  # x(dt)   = x - y
        [0.0, 0.0, 0.0, -1.0],  # p_x(dt) = -p_y
        [1.0, 0.0, 0.0, 0.0],   # y(dt)   = x
        [0.0, 1.0, 0.0, 1.0],   # p_y(dt) = p_x + p_y
    ]),
}

_X, _PX, _Y, _PY = 0, 1, 2, 3


def _covariance(cov, n: int, tol: Tolerances) -> tuple:
    """The one covariance check: an (n, n) real _as_array, symmetric within the
    slack of max|cov_ij|, as (its symmetric part, that slack)."""
    v = _as_array(cov, 2, real=True, dim=n)
    slack = _slack(tol, float(np.abs(v).max()))
    if float(np.abs(v - v.T).max()) > slack:
        raise ValidationError("covariance must be symmetric")
    return 0.5 * (v + v.T), slack


class GaussianState(_Immutable):
    """Mean (q, p) and 2x2 covariance of one canonical pair, immutable,
    with read-only arrays.

    Admissible: cov symmetric within the slack of max|cov_ij|, cov_qq > 0,
    and det(cov) >= (hbar/2)^2, the uncertainty bound, within its slack,
    judged as k = det(cov) / (hbar/2)^2 >= 1. k is the product
    (vqq/h)(vpp/h)(1 - (c/vqq)(c/vpp)), h = hbar/2, in Python floats, which
    round a factor or product beyond the float range to inf or 0 without a
    warning, so a state far above or below the bound is decided at any hbar.
    """

    def __init__(self, mean, cov, constants: PhysicalConstants = DEFAULT_CONSTANTS,
                 tol: Tolerances = DEFAULT_TOL):
        mean = _as_array(mean, 1, real=True, dim=2)
        cov, _ = _covariance(cov, 2, tol)
        vqq, vpp, c, h = float(cov[0, 0]), float(cov[1, 1]), float(cov[0, 1]), constants.hbar / 2.0
        # det(cov) <= 0 unless vqq and vpp share a strict sign
        k = ((vqq / h) * (vpp / h) * (1.0 - (c / vqq) * (c / vpp))
             if min(vqq, vpp) > 0 or max(vqq, vpp) < 0 else 0.0)
        if not k >= 1.0 - _slack(tol):
            raise ValidationError("cov violates the uncertainty bound: det(cov) is "
                                  + (f"{k} (hbar/2)^2 < (hbar/2)^2" if k > 0 else "not positive"))
        if not vqq > 0:  # with det > 0, the 2x2 criterion for cov > 0
            raise ValidationError("cov must be positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        self._init_fields(mean=mean, cov=cov, constants=constants)

    @property
    def mean_q(self) -> float:
        return float(self.mean[0])

    @property
    def sigma_q(self) -> float:
        return float(np.sqrt(self.cov[0, 0]))

    @property
    def sigma_p(self) -> float:
        return float(np.sqrt(self.cov[1, 1]))

    def __repr__(self):
        return f"GaussianState(mean={tuple(self.mean)}, sigma_q={self.sigma_q:.4g}, sigma_p={self.sigma_p:.4g})"


def min_uncertainty_packet(q_center: float, p_center: float, q1: float,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS) -> GaussianState:
    """The Gaussian packet of width parameter q1 centered at (q', p').

    Position variance q1^2/2, momentum variance hbar^2/(2 q1^2), no
    correlation, so sigma(q) sigma(p) = hbar/2 exactly; hbar^2 is never formed.
    A position variance that underflows to 0 raises ValidationError, and a
    momentum variance beyond the float range fails GaussianState's check.
    """
    q_center, p_center, q1 = _numbers((q_center, p_center, q1), "packet")
    if not q1 > 0:
        raise ValidationError("width parameter q1 must be positive")
    vqq = q1 * q1 / 2.0
    if not vqq > 0:
        raise ValidationError(f"position variance q1^2/2 of width q1 = {q1} underflows to 0")
    vpp = constants.hbar * (constants.hbar / (2.0 * q1 * q1))
    return GaussianState((q_center, p_center), [[vqq, 0.0], [0.0, vpp]], constants=constants)


@dataclass(frozen=True)
class LinearModel:
    """A measurement interaction as a finite real 4x4 symplectic matrix on
    (x, p_x, y, p_y), kept as a read-only float copy. The form S J S^T = J
    must hold within the default slack of max|S_ij|^2, the scale of S J S^T."""

    model_id: str
    symplectic: np.ndarray

    def __post_init__(self):
        s = _as_array(self.symplectic, 2, real=True, dim=4)
        scale = float(np.abs(s).max()) ** 2
        if not operator_distance(s @ _J @ s.T, _J) <= _slack(DEFAULT_TOL, scale):
            raise ValidationError("matrix does not preserve the symplectic form")
        s.setflags(write=False)
        object.__setattr__(self, "symplectic", s)


def build_model(model_id: str) -> LinearModel:
    """One of the built-in models by id: 'von_neumann' or 'ozawa_1988'."""
    model_id = _choice(model_id, tuple(_MODEL_MATRICES), "model")
    return LinearModel(model_id, _MODEL_MATRICES[model_id])


def _joint_moments(obj: GaussianState, probe: GaussianState):
    """Mean vector and covariance of the product state on (x, p_x, y, p_y)."""
    mean = np.concatenate([obj.mean, probe.mean])
    cov = np.zeros((4, 4))
    cov[:2, :2] = obj.cov
    cov[2:, 2:] = probe.cov
    return mean, cov


def propagate(model: LinearModel, joint_mean, joint_cov, tol: Tolerances = DEFAULT_TOL):
    """Push joint moments through the interaction: (S m, S V S^T)."""
    m = _as_array(joint_mean, 1, real=True, dim=4)
    v, slack = _covariance(joint_cov, 4, tol)
    if float(np.linalg.eigvalsh(v).min()) < -slack:
        raise ValidationError("joint covariance must be positive semidefinite")
    s = model.symplectic
    out_cov = s @ v @ s.T
    return s @ m, 0.5 * (out_cov + out_cov.T)


def _second_moment_matrix(obj: GaussianState, probe: GaussianState) -> np.ndarray:
    mean, cov = _joint_moments(obj, probe)
    return cov + np.outer(mean, mean)


@dataclass(frozen=True)
class ModelEDR:
    """Error-disturbance figures of one Gaussian model run.

    epsilon is the rms gap between the meter after the interaction and
    the object position before it; eta is the rms momentum kick. The
    kennard_bound is hbar/2, and heisenberg_violated records
    product < hbar/2 beyond the slack of hbar/2.
    """

    model_id: str
    epsilon: float
    eta: float
    product: float
    kennard_bound: float
    heisenberg_violated: bool


def model_edr(model: LinearModel, obj: GaussianState, probe: GaussianState,
              tol: Tolerances = DEFAULT_TOL) -> ModelEDR:
    """Exact rms error and disturbance of a linear model on Gaussian inputs.

    Noise and disturbance are the linear combinations y(dt) - x(0) and
    p_x(dt) - p_x(0); their second moments come straight from the joint
    Gaussian moments, so an identically zero combination gives an exact
    0.0 (no rounding). hbar is the one both states carry; states with
    different hbar raise ValidationError.
    """
    hbar = obj.constants.hbar
    if probe.constants.hbar != hbar:
        raise ValidationError(f"object and probe hbar differ: {hbar} vs {probe.constants.hbar}")
    s = model.symplectic
    m2 = _second_moment_matrix(obj, probe)
    v_noise = s[_Y, :].copy()
    v_noise[_X] -= 1.0
    v_dist = s[_PX, :].copy()
    v_dist[_PX] -= 1.0
    eps = 0.0 if not v_noise.any() else float(np.sqrt(max(v_noise @ m2 @ v_noise, 0.0)))
    eta = 0.0 if not v_dist.any() else float(np.sqrt(max(v_dist @ m2 @ v_dist, 0.0)))
    product = eps * eta
    bound = hbar / 2.0
    return ModelEDR(
        model_id=model.model_id,
        epsilon=eps,
        eta=eta,
        product=product,
        kennard_bound=bound,
        heisenberg_violated=bool(product < bound - _slack(tol, bound)),
    )


def _gaussian_density(grid: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((grid - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _check_grid(grid) -> np.ndarray:
    g = _as_array(grid, 1, real=True)
    if not np.all(np.diff(g) > 0):
        raise ValidationError("grid must be strictly increasing")
    return g


def _meter_moments(model: LinearModel, obj: GaussianState, probe: GaussianState):
    """(mean, cov) after the interaction and the meter variance cov[y, y] > 0."""
    mean, cov = propagate(model, *_joint_moments(obj, probe))
    var = float(cov[_Y, _Y])
    if var <= 0:
        raise ValidationError("meter variance is not positive")
    return mean, cov, var


def output_distribution(model: LinearModel, obj: GaussianState, probe: GaussianState,
                        grid) -> np.ndarray:
    """Meter reading density on a grid after the interaction.

    For the von Neumann model this is the convolution of the object
    position density with the probe position density; as the probe
    narrows it converges to the object's Born density.
    """
    g = _check_grid(grid)
    mean, _, var = _meter_moments(model, obj, probe)
    return _gaussian_density(g, float(mean[_Y]), var)


def position_density(state: GaussianState, grid) -> np.ndarray:
    """Born density of position for a Gaussian state, on a grid."""
    g = _check_grid(grid)
    return _gaussian_density(g, state.mean_q, float(state.cov[0, 0]))


def conditional_position_spread(model: LinearModel, obj: GaussianState,
                                probe: GaussianState) -> float:
    """Object position spread after conditioning on the meter reading.

    Gaussian conditioning of x(dt) on y(dt); for the von Neumann model
    this equals (1/Vxx + 1/Vyy)^(-1/2), which never exceeds the rms
    error, the approximate-repeatability property of the model.
    """
    _, cov, var_meter = _meter_moments(model, obj, probe)
    var = float(cov[_X, _X]) - float(cov[_X, _Y]) ** 2 / var_meter
    return float(np.sqrt(max(var, 0.0)))
