"""Joint probability distributions and measurement precision.

Two observables that commute in a state (on its support, not necessarily
as operators) admit a genuine joint probability distribution of outcomes.
For a measuring process the relevant pair is the target observable before
the interaction, A(0), and the meter after it, M(dt); when they commute in
rho x rho0 the Gauss rms of that joint distribution coincides with the
rms error. Without commutation one still has the weak joint distribution,
whose atoms may be complex or negative.

A process is precise in a state when the (weak) joint distribution is
concentrated on the diagonal x = y. theorem2_check evaluates the four
numerically checkable faces of that property: strong and weak diagonal
concentration, vanishing rms error across the cyclic subspace, and
probability reproducibility across the cyclic subspace. They are
equivalent, so the four flags must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edr import _Scenario
from .instruments import MeasuringProcess, _born
from .operators import (
    DEFAULT_TOL,
    SpectralDecomposition,
    Tolerances,
    ValidationError,
    _as_state_matrix,
    _check_dims,
    _cluster_labels,
    _slack,
    spectral_decompose,
    tensor,
)


def _commute(p: np.ndarray, q: np.ndarray, sigma: np.ndarray, tol: Tolerances) -> bool:
    """Whether [P_i, Q_j] sigma = 0 within eq_tol for every pair from two
    stacks of projectors; stops at the first pair that fails."""
    _check_dims(p, q, sigma)
    for pi in p:
        for qj in q:
            if float(np.abs((pi @ qj - qj @ pi) @ sigma).max()) > tol.eq_tol:
                return False
    return True


def commute_in_state(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether [P_i, Q_j] rho = 0 for all spectral projector pairs.

    Commutation in a state is weaker than operator commutation: it only
    constrains the support of rho.
    """
    return _commute(spectral_decompose(x, tol).projectors, spectral_decompose(y, tol).projectors,
                    _as_state_matrix(rho, tol), tol)


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome atoms of two observables in a state.

    weights[i, j] = Tr[P_i Q_j rho], total 1. The weights are real with a
    -psd_tol floor for a genuine joint distribution (joint_distribution)
    and complex for the weak one (weak_joint_distribution).
    """

    x_atoms: np.ndarray
    y_atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (len(self.x_atoms), len(self.y_atoms)):
            raise ValidationError("weights shape does not match atom counts")
        self.x_atoms.setflags(write=False)
        self.y_atoms.setflags(write=False)
        self.weights.setflags(write=False)

    def x_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def y_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=0)


def _joint(x_atoms, p: np.ndarray, y_atoms, q: np.ndarray, sigma: np.ndarray,
           tol: Tolerances) -> JointDistribution:
    """Complex weights W[i, j] = Tr[P_i Q_j sigma] from stacks of projectors
    with their values.

    Raises if the total strays from 1 or a marginal from the Born
    distribution of its stack in sigma.
    """
    w = np.einsum("iab,jba->ij", p, q @ sigma)
    slack = max(tol.eq_tol, 1e-10, 1e-12 * w.size)
    total = complex(w.sum())
    if abs(total - 1.0) > slack:
        raise ValidationError(f"joint weights sum to {total}")
    if np.abs(w.sum(axis=1) - _born(x_atoms, p, sigma, tol).probabilities).max() > slack:
        raise ValidationError("x marginal does not reproduce the Born distribution")
    if np.abs(w.sum(axis=0) - _born(y_atoms, q, sigma, tol).probabilities).max() > slack:
        raise ValidationError("y marginal does not reproduce the Born distribution")
    return JointDistribution(np.array(x_atoms), np.array(y_atoms), w)


def _real_part(jd: JointDistribution, tol: Tolerances) -> JointDistribution:
    """The genuine joint distribution behind complex weights that should
    be real: raises if a weight has an imaginary residue above eq_tol or
    falls below the psd_tol floor."""
    w = jd.weights
    if np.abs(w.imag).max() > tol.eq_tol:
        raise ValidationError(f"joint weight has imaginary residue {np.abs(w.imag).max()}")
    if w.real.min() < tol.psd_tol:
        raise ValidationError(f"negative joint weight {w.real.min()}")
    return JointDistribution(jd.x_atoms, jd.y_atoms, np.maximum(w.real, 0.0))


def joint_distribution(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> JointDistribution:
    """The joint distribution of two observables commuting in a state.

    Raises if the pair fails commute_in_state, if any weight has an
    imaginary residue above eq_tol, if a weight falls below the psd_tol
    floor, or if a marginal strays from the Born distribution.
    """
    dx, dy = spectral_decompose(x, tol), spectral_decompose(y, tol)
    sigma = _as_state_matrix(rho, tol)
    if not _commute(dx.projectors, dy.projectors, sigma, tol):
        raise ValidationError("observables do not commute in the state")
    return _real_part(_joint(dx.eigenvalues, dx.projectors, dy.eigenvalues, dy.projectors,
                             sigma, tol), tol)


def gauss_rms(jd: JointDistribution) -> float:
    """Root-mean-square gauge sqrt(sum w_ij (y_j - x_i)^2) of a genuine
    (real-weight) joint distribution, the classical rms deviation between
    the two outcomes. Complex weights, as a weak joint distribution
    carries, raise."""
    if np.iscomplexobj(jd.weights):
        raise ValidationError("gauss_rms needs real weights; this joint distribution is weak")
    dx = jd.y_atoms[None, :] - jd.x_atoms[:, None]
    return float(np.sqrt(max(float((jd.weights * dx ** 2).sum()), 0.0)))


def _before_after(ctx: _Scenario, x: str):
    """Projectors of X(0) and of its partner after the interaction, M(dt)
    for x = "a" and B(dt) for x = "b", and their weak joint distribution
    in rho x rho0, all in closed form: X(0) = X x 1 has X's values with
    the projectors P_i x 1, B(dt) the same values with U+ (P_i x 1) U."""
    dx = ctx.decomposition(x)
    p0 = tensor(dx.projectors, np.eye(ctx.mp.probe_dim))
    after = (ctx.mp._meter_decomposition(ctx.tol) if x == "a"
             else SpectralDecomposition(dx.eigenvalues, ctx.mp._evolve(p0)))
    return p0, after.projectors, _joint(dx.eigenvalues, p0, after.eigenvalues, after.projectors,
                                        ctx.joint, ctx.tol)


def weak_joint_distribution(mp: MeasuringProcess, a, rho,
                            tol: Tolerances = None) -> JointDistribution:
    """Weak joint distribution of A(0) and M(dt) in rho x rho0.

    Always defined, with complex weights; real nonnegative exactly when
    the pair commutes in the state. Marginals are the real Born statistics
    over A's spectral values and over the instrument's outcome values.
    """
    return _before_after(_Scenario(mp, a, None, rho, tol or mp.tol), "a")[2]


def _diagonal_concentrated(jd: JointDistribution, tol: Tolerances) -> bool:
    """True when every atom with |x - y| beyond the slack of the largest
    |atom| has |weight| <= eq_tol."""
    scale = max(np.abs(jd.x_atoms).max(), np.abs(jd.y_atoms).max())
    off = np.abs(jd.x_atoms[:, None] - jd.y_atoms[None, :]) > _slack(tol, scale)
    return not bool((off & (np.abs(jd.weights) > tol.eq_tol)).any())


def _strong_precise(ctx: _Scenario, p0, q, weak: JointDistribution) -> bool:
    """The pair of _before_after commutes in rho x rho0 and its joint
    distribution, the real part of the weak one, sits on the diagonal."""
    return (_commute(p0, q, ctx.joint, ctx.tol)
            and _diagonal_concentrated(_real_part(weak, ctx.tol), ctx.tol))


def is_precise(mp: MeasuringProcess, a, rho, mode: str = "strong",
               tol: Tolerances = None) -> bool:
    """Whether the process reproduces A exactly in the state rho.

    mode "strong": A(0) and M(dt) commute in rho x rho0 and their joint
    distribution sits on the diagonal. mode "weak": the weak joint
    distribution sits on the diagonal in modulus. Strong implies weak;
    for measurement precision the two agree (theorem2_check).
    """
    if mode not in ("strong", "weak"):
        raise ValidationError(f"mode must be 'strong' or 'weak', got {mode!r}")
    ctx = _Scenario(mp, a, None, rho, tol or mp.tol)
    p0, q, weak = _before_after(ctx, "a")
    if mode == "weak":
        return _diagonal_concentrated(weak, ctx.tol)
    return _strong_precise(ctx, p0, q, weak)


def is_nondisturbing(mp: MeasuringProcess, b, rho, tol: Tolerances = None) -> bool:
    """Whether B(0) and B(dt) commute in rho x rho0 with a diagonal-
    concentrated joint distribution: the strong is_precise test, for B."""
    ctx = _Scenario(mp, None, b, rho, tol or mp.tol)
    return _strong_precise(ctx, *_before_after(ctx, "b"))


def _cluster_gap(ctx: _Scenario) -> np.ndarray:
    """The process POVM minus the spectral measure of A, summed over each
    cluster of their outcome values merged into one sorted run, as one
    (k, d, d) stack: zero exactly when the meter reproduces A's statistics."""
    da = ctx.decomposition("a")
    m_values, m_effects = ctx.mp._povm(ctx.tol)
    values = np.concatenate([da.eigenvalues, m_values])
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=int)
    labels[order] = _cluster_labels(values[order], ctx.tol)
    gap = np.zeros((labels.max() + 1,) + ctx.rho.shape, dtype=complex)
    np.add.at(gap, labels, np.concatenate([-da.projectors, m_effects]))
    return gap


def probability_reproducible(mp: MeasuringProcess, a, rho, tol: Tolerances = None) -> bool:
    """Whether the meter statistics in rho reproduce the Born statistics
    of A in rho, matching outcome values within the slack of the largest
    |value|."""
    ctx = _Scenario(mp, a, None, rho, tol or mp.tol)
    gap = np.einsum("kab,ba->k", _cluster_gap(ctx), ctx.rho)
    return bool(np.abs(gap).max() <= max(ctx.tol.eq_tol, 1e-10))


@dataclass(frozen=True)
class PrecisionReport:
    """Four numerically checkable faces of measurement precision in a state.

    The underlying conditions are mathematically equivalent, so the flags
    agree whenever the numerical checks are conclusive.
    """

    strong_precise: bool
    weak_precise: bool
    eps_zero_on_cyclic: bool
    prob_repro_on_cyclic: bool

    def flags(self) -> tuple:
        return (self.strong_precise, self.weak_precise,
                self.eps_zero_on_cyclic, self.prob_repro_on_cyclic)

    @property
    def consistent(self) -> bool:
        return len(set(self.flags())) == 1


def theorem2_check(mp: MeasuringProcess, a, rho, tol: Tolerances = None) -> PrecisionReport:
    """Evaluate the four equivalent precision conditions independently.

    strong/weak: diagonal concentration of the (weak) joint distribution
    of A(0) and M(dt) in rho x rho0. eps_zero_on_cyclic: the noise second
    moment compressed to the cyclic subspace of (A, rho) has top
    eigenvalue within the slack of ||A||^2 (max-abs norm).
    prob_repro_on_cyclic: the process POVM and the spectral measure of A
    agree as quadratic forms on that subspace, outcome cluster by outcome
    cluster.
    """
    return _precision_report(_Scenario(mp, a, None, rho, tol or mp.tol))


def _precision_report(ctx: _Scenario) -> PrecisionReport:
    """theorem2_check of a scenario; the strong and weak flags share one
    weight matrix, eps_zero_on_cyclic the locally uniform top eigenvalue."""
    tol = ctx.tol
    p0, q, weak = _before_after(ctx, "a")
    pc = ctx.cyclic("a").projector()
    repro = float(np.abs(pc @ _cluster_gap(ctx) @ pc).max()) <= max(tol.eq_tol, 1e-9)
    a_scale = float(np.abs(ctx.obs["a"].matrix).max())
    return PrecisionReport(
        strong_precise=bool(_strong_precise(ctx, p0, q, weak)),
        weak_precise=bool(_diagonal_concentrated(weak, tol)),
        eps_zero_on_cyclic=bool(ctx.top("a") <= _slack(tol, a_scale ** 2)),
        prob_repro_on_cyclic=bool(repro),
    )
