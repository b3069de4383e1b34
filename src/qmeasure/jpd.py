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

from .edr import cyclic_subspace, noise_moment_operator
from .instruments import MeasuringProcess, born_distribution
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    ValidationError,
    _as_observable_matrix,
    _as_state_matrix,
    _cluster_labels,
    hermitian_part,
    partial_trace,
    spectral_decompose,
)


def _commute(dx, dy, sigma: np.ndarray, tol: Tolerances) -> bool:
    """Whether [P_i, Q_j] sigma = 0 within eq_tol for every projector pair."""
    for p in dx.projectors:
        for q in dy.projectors:
            if float(np.abs((p @ q - q @ p) @ sigma).max()) > tol.eq_tol:
                return False
    return True


def commute_in_state(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether [P_i, Q_j] rho = 0 for all spectral projector pairs.

    Commutation in a state is weaker than operator commutation: it only
    constrains the support of rho.
    """
    xm = _as_observable_matrix(x, tol)
    ym = _as_observable_matrix(y, tol)
    rm = _as_state_matrix(rho, tol)
    return _commute(spectral_decompose(xm, tol), spectral_decompose(ym, tol), rm, tol)


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


def _joint_weights(p: np.ndarray, q: np.ndarray, sigma: np.ndarray,
                   tol: Tolerances) -> np.ndarray:
    """W[i, j] = Tr[P_i Q_j sigma] from stacks of projectors, complex.

    Raises if the total strays from 1 or a marginal from the Born
    probabilities Tr[P_i sigma] and Tr[Q_j sigma].
    """
    q_sigma = q @ sigma
    w = np.einsum("iab,jba->ij", p, q_sigma)
    slack = max(tol.eq_tol, 1e-10, 1e-12 * w.size)
    total = complex(w.sum())
    if abs(total - 1.0) > slack:
        raise ValidationError(f"joint weights sum to {total}")
    if np.abs(w.sum(axis=1) - np.einsum("iab,ba->i", p, sigma)).max() > slack:
        raise ValidationError("x marginal does not reproduce the Born distribution")
    if np.abs(w.sum(axis=0) - np.einsum("jaa->j", q_sigma)).max() > slack:
        raise ValidationError("y marginal does not reproduce the Born distribution")
    return w


def _commuting_joint(x: np.ndarray, y: np.ndarray, sigma: np.ndarray, tol: Tolerances):
    """The joint distribution of x and y in sigma, or None when they do
    not commute in sigma. Raises if a weight has an imaginary residue
    above eq_tol or falls below the psd_tol floor."""
    dx = spectral_decompose(x, tol)
    dy = spectral_decompose(y, tol)
    if not _commute(dx, dy, sigma, tol):
        return None
    w = _joint_weights(np.stack(dx.projectors), np.stack(dy.projectors), sigma, tol)
    if np.abs(w.imag).max() > tol.eq_tol:
        raise ValidationError(f"joint weight has imaginary residue {np.abs(w.imag).max()}")
    if w.real.min() < tol.psd_tol:
        raise ValidationError(f"negative joint weight {w.real.min()}")
    return JointDistribution(np.array(dx.eigenvalues), np.array(dy.eigenvalues),
                             np.maximum(w.real, 0.0))


def joint_distribution(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> JointDistribution:
    """The joint distribution of two observables commuting in a state.

    Raises if the pair fails commute_in_state, if any weight has an
    imaginary residue above eq_tol, if a weight falls below the psd_tol
    floor, or if a marginal strays from the Born distribution.
    """
    jd = _commuting_joint(_as_observable_matrix(x, tol), _as_observable_matrix(y, tol),
                          _as_state_matrix(rho, tol), tol)
    if jd is None:
        raise ValidationError("observables do not commute in the state")
    return jd


def gauss_rms(jd: JointDistribution) -> float:
    """Root-mean-square gauge sqrt(sum w_ij (y_j - x_i)^2) of a genuine
    (real-weight) joint distribution, the classical rms deviation between
    the two outcomes."""
    dx = jd.y_atoms[None, :] - jd.x_atoms[:, None]
    return float(np.sqrt(max(float((jd.weights * dx ** 2).sum()), 0.0)))


def weak_joint_distribution(mp: MeasuringProcess, a, rho,
                            tol: Tolerances = None) -> JointDistribution:
    """Weak joint distribution of A(0) and M(dt) in rho x rho0.

    Always defined, with complex weights; real nonnegative exactly when
    the pair commutes in the state. Marginals are real and reproduce the
    Born distributions of A(0) and M(dt).
    """
    tol = tol or mp.tol
    da = spectral_decompose(_as_observable_matrix(a, tol), tol)
    dm = spectral_decompose(mp.evolved_meter(), tol)
    a0_projectors = np.kron(np.stack(da.projectors), np.eye(mp.probe_dim))
    w = _joint_weights(a0_projectors, np.stack(dm.projectors), mp.composite_state(rho), tol)
    return JointDistribution(np.array(da.eigenvalues), np.array(dm.eigenvalues), w)


def _diagonal_concentrated(jd: JointDistribution, tol: Tolerances) -> bool:
    """True when every atom with |x - y| > eq_tol has |weight| <= eq_tol."""
    off = np.abs(jd.x_atoms[:, None] - jd.y_atoms[None, :]) > tol.eq_tol
    return not bool((off & (np.abs(jd.weights) > tol.eq_tol)).any())


def _commuting_diagonal(x: np.ndarray, y: np.ndarray, sigma: np.ndarray, tol: Tolerances) -> bool:
    """Whether x and y commute in sigma with a diagonal-concentrated joint
    distribution."""
    jd = _commuting_joint(x, y, sigma, tol)
    return jd is not None and _diagonal_concentrated(jd, tol)


def is_precise(mp: MeasuringProcess, a, rho, mode: str = "strong",
               tol: Tolerances = None) -> bool:
    """Whether the process reproduces A exactly in the state rho.

    mode "strong": A(0) and M(dt) commute in rho x rho0 and their joint
    distribution sits on the diagonal. mode "weak": the weak joint
    distribution sits on the diagonal in modulus. Strong implies weak;
    for measurement precision the two agree (theorem2_check).
    """
    tol = tol or mp.tol
    if mode == "weak":
        return _diagonal_concentrated(weak_joint_distribution(mp, a, rho, tol), tol)
    if mode != "strong":
        raise ValidationError(f"mode must be 'strong' or 'weak', got {mode!r}")
    a0 = np.kron(_as_observable_matrix(a, tol), np.eye(mp.probe_dim))
    return _commuting_diagonal(a0, mp.evolved_meter(), mp.composite_state(rho), tol)


def is_nondisturbing(mp: MeasuringProcess, b, rho, tol: Tolerances = None) -> bool:
    """Whether B is left undisturbed in rho: B(0) and B(dt) commute in
    rho x rho0 with a diagonal-concentrated joint distribution."""
    tol = tol or mp.tol
    bm = _as_observable_matrix(b, tol)
    b0 = np.kron(bm, np.eye(mp.probe_dim))
    return _commuting_diagonal(b0, mp.evolved_system(bm), mp.composite_state(rho), tol)


def _process_povm(mp: MeasuringProcess, tol: Tolerances):
    """Meter outcome values with their POVM effects on the system."""
    dm = spectral_decompose(mp.evolved_meter(), tol)
    ref = np.kron(np.eye(mp.system_dim), mp.probe_state.matrix)
    effects = []
    for e in dm.projectors:
        eff = partial_trace(e @ ref, (mp.system_dim, mp.probe_dim), keep="first")
        effects.append(hermitian_part(eff))
    return list(dm.eigenvalues), effects


def _outcome_clusters(a_values, m_values, tol: Tolerances):
    """Cluster labels of the outcome values of A and of the meter, merged
    into one sorted run, and the number of clusters."""
    values = np.concatenate([a_values, m_values]).astype(float)
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=int)
    labels[order] = _cluster_labels(values[order], tol.eq_tol)
    return labels[:len(a_values)], labels[len(a_values):], int(labels.max()) + 1


def probability_reproducible(mp: MeasuringProcess, a, rho, tol: Tolerances = None) -> bool:
    """Whether the meter statistics in rho reproduce the Born statistics
    of A in rho, matching outcome values within eq_tol."""
    tol = tol or mp.tol
    am = _as_observable_matrix(a, tol)
    rm = _as_state_matrix(rho, tol)
    ba = born_distribution(am, rm, tol)
    m_values, m_effects = _process_povm(mp, tol)
    m_probs = [float(np.trace(e @ rm).real) for e in m_effects]
    a_labels, m_labels, k = _outcome_clusters(ba.outcomes, m_values, tol)
    pa = np.bincount(a_labels, weights=ba.probabilities, minlength=k)
    pm = np.bincount(m_labels, weights=m_probs, minlength=k)
    return bool(np.abs(pa - pm).max() <= max(tol.eq_tol, 1e-10))


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
    eigenvalue at most eq_tol. prob_repro_on_cyclic: the process POVM and
    the spectral measure of A agree as quadratic forms on that subspace,
    outcome cluster by outcome cluster.
    """
    tol = tol or mp.tol
    am = _as_observable_matrix(a, tol)
    rm = _as_state_matrix(rho, tol)
    strong = is_precise(mp, am, rm, mode="strong", tol=tol)
    weak = is_precise(mp, am, rm, mode="weak", tol=tol)

    sub = cyclic_subspace(am, rm, tol)
    t_op = noise_moment_operator(mp, am)
    top = float(np.linalg.eigvalsh(hermitian_part(sub.compress(t_op))).max())
    eps_zero = bool(top <= tol.eq_tol)

    da = spectral_decompose(am, tol)
    m_values, m_effects = _process_povm(mp, tol)
    a_labels, m_labels, k = _outcome_clusters(da.eigenvalues, m_values, tol)
    proj_sums = np.zeros((k,) + am.shape, dtype=complex)
    eff_sums = np.zeros((k,) + am.shape, dtype=complex)
    np.add.at(proj_sums, a_labels, np.stack(da.projectors))
    np.add.at(eff_sums, m_labels, np.stack(m_effects))
    pc = sub.projector()
    repro = all(float(np.abs(pc @ (e - p) @ pc).max()) <= max(tol.eq_tol, 1e-9)
                for p, e in zip(proj_sums, eff_sums))
    return PrecisionReport(
        strong_precise=bool(strong),
        weak_precise=bool(weak),
        eps_zero_on_cyclic=eps_zero,
        prob_repro_on_cyclic=bool(repro),
    )
