"""Joint probability distributions and measurement precision.

Two observables that commute in a state (on its support, not necessarily
as operators) admit a genuine joint probability distribution of outcomes.
For a measuring process the relevant pair is the target observable before
the interaction, A(0), and the meter after it, M(dt); when they commute in
rho x rho0 the Gauss rms of that joint distribution coincides with the
rms error. Without commutation one still has the weak joint distribution,
whose atoms may be complex or negative.

A process is precise in a state when the weak joint distribution is
concentrated on the diagonal x = y, outcome values matched by
_cluster_labels alone. theorem2_check evaluates the four numerically
checkable faces of that property: weak diagonal concentration, the same
with commutation in rho x rho0 (strong), vanishing rms error across the
cyclic subspace, and probability reproducibility across the cyclic
subspace. They are equivalent, so the four flags must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edr import _Scenario
from .instruments import CPInstrument, MeasuringProcess, _born, dilate
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    Tolerances,
    ValidationError,
    _cluster_labels,
    _slack,
    _validated,
    dagger,
    spectral_decompose,
    tensor,
)


def _commute(p: np.ndarray, factors, sigma: np.ndarray, tol: Tolerances) -> bool:
    """Whether [P_i x 1, V V+] sigma = 0 within the _slack of len(sigma) terms
    for a stack of P_i, acting on the leading index of V's rows, and every thin
    factor V (V V+ a projector); one pass per V, stopping at the first failure."""
    d, slack = p.shape[-1], _slack(tol, terms=len(sigma))
    for v in factors:
        pv = (p @ v.reshape(d, -1)).reshape((len(p),) + v.shape)
        comm = pv @ (dagger(v) @ sigma) - v @ (dagger(pv) @ sigma)
        if float(np.abs(comm).max()) > slack:
            return False
    return True


def commute_in_state(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether [P_i, Q_j] rho = 0 for all spectral projector pairs.

    Commutation in a state is weaker than operator commutation: it only
    constrains the support of rho.
    """
    dx = spectral_decompose(x, tol)
    dy = spectral_decompose(_validated(y, HermitianObservable, tol, dx.dim), tol)
    sigma = _validated(rho, DensityOperator, tol, dx.dim).matrix
    return _commute(dx.projectors, dy.blocks, sigma, tol)


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


def _joint(x_atoms, p: np.ndarray, y_atoms, q: np.ndarray, sigma: np.ndarray,
           tol: Tolerances) -> JointDistribution:
    """Complex weights W[i, j] = Tr[P_i Q_j sigma] from stacks of effects
    (projectors, or POVM effects for Q) with their values.

    Raises if the total strays from 1 or a marginal from the Born distribution
    of its stack in sigma by more than the _slack of n * #atoms terms.
    """
    w = np.einsum("iab,jba->ij", p, q @ sigma)
    slack = _slack(tol, terms=len(sigma) * w.size)
    total = complex(w.sum())
    if abs(total - 1.0) > slack:
        raise ValidationError(f"joint weights sum to {total}")
    if np.abs(w.sum(axis=1) - _born(p, sigma, tol)).max() > slack:
        raise ValidationError("x marginal does not reproduce the Born distribution")
    if np.abs(w.sum(axis=0) - _born(q, sigma, tol)).max() > slack:
        raise ValidationError("y marginal does not reproduce the Born distribution")
    return JointDistribution(np.array(x_atoms), np.array(y_atoms), w)


def joint_distribution(x, y, rho, tol: Tolerances = DEFAULT_TOL) -> JointDistribution:
    """The joint distribution of two observables commuting in a state.

    Raises if the pair fails commute_in_state, if any weight has an
    imaginary residue above the _slack of n * #atoms terms, if a weight falls
    below the psd_tol floor, or if a marginal strays from the Born distribution.
    """
    dx = spectral_decompose(x, tol)
    dy = spectral_decompose(_validated(y, HermitianObservable, tol, dx.dim), tol)
    sigma = _validated(rho, DensityOperator, tol, dx.dim).matrix
    if not _commute(dx.projectors, dy.blocks, sigma, tol):
        raise ValidationError("observables do not commute in the state")
    w = _joint(dx.eigenvalues, dx.projectors, dy.eigenvalues, dy.projectors, sigma, tol).weights
    if np.abs(w.imag).max() > _slack(tol, terms=len(sigma) * w.size):
        raise ValidationError(f"joint weight has imaginary residue {np.abs(w.imag).max()}")
    if w.real.min() < tol.psd_tol:
        raise ValidationError(f"negative joint weight {w.real.min()}")
    return JointDistribution(dx.eigenvalues, dy.eigenvalues, np.maximum(w.real, 0.0))


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
    """The weak joint distribution in rho x rho0 of X(0) = X x 1 and its
    partner after the interaction, M(dt) for x = "a" and B(dt) for x = "b",
    from the labelled Kraus stack alone: Tr[P_i E_j rho] with E_j its POVM
    for "a" and T*(P_j) for "b"."""
    stack, dx = ctx.stack, ctx.decomposition(x)
    values, effects = ((stack.values, stack.effects) if x == "a"
                       else (dx.eigenvalues, stack.dual(stack.left(dx.projectors))))
    return _joint(dx.eigenvalues, dx.projectors, values, effects, ctx.rho.matrix, ctx.tol)


def weak_joint_distribution(source: MeasuringProcess | CPInstrument, a, rho) -> JointDistribution:
    """Weak joint distribution of A(0) and M(dt) in rho x rho0.

    Always defined, with complex weights; real nonnegative exactly when
    the pair commutes in the state. Marginals are the real Born statistics
    over A's spectral values and over the instrument's outcome values: a
    CPInstrument's own outcomes (one without Kraus operators included), a
    process's meter spectral values.
    """
    return _before_after(_Scenario(source, a, None, rho), "a")


def _labels(ctx: _Scenario, x: str) -> np.ndarray:
    """_cluster_labels over X's eigenvalues followed by the outcome values
    of its _before_after partner (the stack's for "a", X's own for "b"):
    the labels _diagonal_concentrated and _cluster_gap read."""
    dx = ctx.decomposition(x)
    values = ctx.stack.values if x == "a" else dx.eigenvalues
    return _cluster_labels(np.concatenate([dx.eigenvalues, values]), ctx.tol)


def _diagonal_concentrated(jd: JointDistribution, labels: np.ndarray, tol: Tolerances) -> bool:
    """True when every atom whose x and y fall in different clusters of
    labels (_labels of jd's scenario) has |weight| <= _slack of #atoms."""
    off = labels[:len(jd.x_atoms), None] != labels[None, len(jd.x_atoms):]
    return not bool((off & (np.abs(jd.weights) > _slack(tol, terms=jd.weights.size))).any())


def _commutes_after(ctx: _Scenario, x: str) -> bool:
    """Whether the pair of _before_after commutes in rho x rho0, the
    after-projectors taken as thin factors V V+ (U+ (e_s x q_j) over a meter
    block q, U+ (u_j x e_k) over a block u of B) of the scenario's process,
    for an instrument its dilate, the one figure step that needs a unitary."""
    mp = ctx.source if isinstance(ctx.source, MeasuringProcess) else dilate(ctx.source)
    ud = dagger(mp.unitary).reshape(-1, mp.system_dim, mp.probe_dim)  # columns (s, k)
    blocks = (mp._meter_measure if x == "a" else ctx.decomposition("b")).blocks
    factors = ((ud @ v if x == "a" else ud.swapaxes(1, 2) @ v).reshape(len(ud), -1) for v in blocks)
    sigma = tensor(ctx.rho, mp.probe_state)
    return _commute(ctx.decomposition(x).projectors, factors, sigma, ctx.tol)


def is_precise(source: MeasuringProcess | CPInstrument, a, rho) -> bool:
    """Whether the process or instrument reproduces A exactly in the state rho:
    the weak joint distribution of A(0) and M(dt) in rho x rho0 sits on the
    diagonal in modulus, and the pair commutes in rho x rho0, so that the
    weak distribution is the genuine one; the commutation test, the one
    step that dilates an instrument, runs only if the diagonal test holds.
    The diagonal test alone is theorem2_check's weak_precise, which agrees.
    """
    ctx = _Scenario(source, a, None, rho)
    return (_diagonal_concentrated(_before_after(ctx, "a"), _labels(ctx, "a"), ctx.tol)
            and _commutes_after(ctx, "a"))


def is_nondisturbing(source: MeasuringProcess | CPInstrument, b, rho) -> bool:
    """Whether the weak joint distribution of B(0) and B(dt) sits on the
    diagonal and the pair commutes in rho x rho0: the strong is_precise
    test, for B."""
    ctx = _Scenario(source, None, b, rho)
    return (_diagonal_concentrated(_before_after(ctx, "b"), _labels(ctx, "b"), ctx.tol)
            and _commutes_after(ctx, "b"))


def _cluster_gap(ctx: _Scenario, labels: np.ndarray) -> np.ndarray:
    """The stack's POVM minus the spectral measure of A, summed over each
    cluster of their outcome values (labels, _labels of "a"), as one
    (k, d, d) stack: zero exactly when the meter reproduces A's statistics."""
    da = ctx.decomposition("a")
    gap = np.zeros((labels.max() + 1,) + ctx.rho.matrix.shape, dtype=complex)
    np.add.at(gap, labels, np.concatenate([-da.projectors, ctx.stack.effects]))
    return gap


def probability_reproducible(source: MeasuringProcess | CPInstrument, a, rho) -> bool:
    """Whether the meter statistics in rho reproduce the Born statistics
    of A in rho, matching outcome values within the slack of the largest
    |value|."""
    ctx = _Scenario(source, a, None, rho)
    gap = np.einsum("kab,ba->k", _cluster_gap(ctx, _labels(ctx, "a")), ctx.rho.matrix)
    return bool(np.abs(gap).max() <= _slack(ctx.tol, terms=ctx.rho.dim))


@dataclass(frozen=True)
class PrecisionReport:
    """Four numerically checkable faces of measurement precision in a state.

    The underlying conditions are mathematically equivalent, so the flags
    agree whenever the numerical checks are conclusive. strong_precise is
    weak_precise and the commutation test, so it never exceeds it.
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


def theorem2_check(source: MeasuringProcess | CPInstrument, a, rho) -> PrecisionReport:
    """Evaluate the four equivalent precision conditions.

    weak: the weak joint distribution of A(0) and M(dt) in rho x rho0 sits
    on the diagonal; strong: weak, and the pair commutes in rho x rho0
    (tested only if weak holds). eps_zero_on_cyclic: the noise second
    moment compressed to the cyclic subspace of (A, rho) has top
    eigenvalue within the slack of ||A||^2 (max-abs norm).
    prob_repro_on_cyclic: the source's POVM and the spectral measure of A
    agree as quadratic forms on that subspace, cluster by cluster of
    their outcome values. Values match by _cluster_labels throughout.
    """
    return _precision_report(_Scenario(source, a, None, rho))


def _precision_report(ctx: _Scenario) -> PrecisionReport:
    """theorem2_check of a scenario; the strong flag reads the weak one,
    eps_zero_on_cyclic the locally uniform top eigenvalue."""
    tol, labels = ctx.tol, _labels(ctx, "a")
    weak = _diagonal_concentrated(_before_after(ctx, "a"), labels, tol)
    pc = ctx.cyclic("a") @ dagger(ctx.cyclic("a"))
    repro = float(np.abs(pc @ _cluster_gap(ctx, labels) @ pc).max()) <= _slack(tol, terms=len(pc))
    a_scale = float(np.abs(ctx.obs["a"].matrix).max())
    return PrecisionReport(
        strong_precise=bool(weak and _commutes_after(ctx, "a")),
        weak_precise=bool(weak),
        eps_zero_on_cyclic=bool(ctx.top("a") <= _slack(tol, a_scale ** 2)),
        prob_repro_on_cyclic=bool(repro),
    )
