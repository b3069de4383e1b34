"""Root-mean-square error and disturbance of a measuring process.

The noise operator compares the meter after the interaction with the
target observable before it, N(A) = M(dt) - A(0); the disturbance
operator compares a second observable with itself across the
interaction, D(B) = B(dt) - B(0). Their second moments in rho x rho0
give the rms error epsilon(A) and rms disturbance eta(B).

edr_ledger evaluates, in one pass, the breakable Heisenberg-type bound
epsilon*eta >= (1/2)|<[A,B]>| together with two universally valid
strengthenings: one adding a commutator correlation term built from the
mean noise and mean disturbance operators, and one adding the
standard-deviation cross terms epsilon*sigma(B) + sigma(A)*eta.
All inequality flags carry an absolute slack of 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import MeasuringProcess
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    ValidationError,
    _as_observable_matrix,
    _as_state_matrix,
    commutator,
    dagger,
    hermitian_part,
    partial_trace,
    robertson_bound,
    spectral_decompose,
    std_dev,
)

EDR_SLACK = 1e-8


def noise_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """N(A) = M(dt) - A(0) on the composite space."""
    return mp.evolved_meter() - mp.embedded_system(a)


def disturbance_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """D(B) = B(dt) - B(0) on the composite space."""
    return mp.evolved_system(b) - mp.embedded_system(b)


def _second_moment(op: np.ndarray, joint: np.ndarray) -> float:
    val = np.trace(op @ op @ joint).real
    return max(float(val), 0.0)


def rms_error(mp: MeasuringProcess, a, rho) -> float:
    """epsilon(A, rho) = sqrt(Tr[N(A)^2 (rho x rho0)])."""
    return float(np.sqrt(_second_moment(noise_operator(mp, a), mp.composite_state(rho))))


def rms_disturbance(mp: MeasuringProcess, b, rho) -> float:
    """eta(B, rho) = sqrt(Tr[D(B)^2 (rho x rho0)])."""
    return float(np.sqrt(_second_moment(disturbance_operator(mp, b), mp.composite_state(rho))))


def _probe_average(mp: MeasuringProcess, op: np.ndarray) -> np.ndarray:
    """Tr_probe[op (1 x rho0)], Hermitian for Hermitian op."""
    big = op @ np.kron(np.eye(mp.system_dim), mp.probe_state.matrix)
    return hermitian_part(partial_trace(big, (mp.system_dim, mp.probe_dim), keep="first"))


def mean_noise_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """n(A) = Tr_probe[N(A) (1 x rho0)], a system observable."""
    return _probe_average(mp, noise_operator(mp, a))


def mean_disturbance_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """d(B) = Tr_probe[D(B) (1 x rho0)], a system observable."""
    return _probe_average(mp, disturbance_operator(mp, b))


def noise_moment_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """Second-moment operator Tr_probe[N(A)^2 (1 x rho0)].

    Positive semidefinite; its expectation in a vector state phi is
    epsilon(A, phi)^2.
    """
    n = noise_operator(mp, a)
    return _probe_average(mp, n @ n)


def disturbance_moment_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """Second-moment operator Tr_probe[D(B)^2 (1 x rho0)]."""
    d = disturbance_operator(mp, b)
    return _probe_average(mp, d @ d)


@dataclass(frozen=True)
class EDRReport:
    """One evaluation of the error-disturbance inequalities.

    heisenberg_product = epsilon*eta, uedr_lhs adds the correlation term,
    oedr_lhs adds the standard-deviation cross terms. Each *_holds flag
    compares its left side against the robertson bound with slack 1e-8.
    """

    epsilon: float
    eta: float
    sigma_a: float
    sigma_b: float
    robertson: float
    correlation_term: float
    heisenberg_product: float
    uedr_lhs: float
    oedr_lhs: float
    heisenberg_holds: bool
    uedr_holds: bool
    oedr_holds: bool


def edr_ledger(mp: MeasuringProcess, a, b, rho, tol: Tolerances = None) -> EDRReport:
    """Evaluate the three error-disturbance relations for one scenario.

    The noise operator N(A) is built once and gives both epsilon and the
    mean noise operator n(A); it is released before the disturbance
    operator D(B) is built, which likewise gives eta and d(B). The results
    equal those of rms_error, rms_disturbance, mean_noise_operator and
    mean_disturbance_operator, and every float field is a Python float.
    """
    tol = tol or mp.tol
    am = _as_observable_matrix(a, tol)
    bm = _as_observable_matrix(b, tol)
    rm = _as_state_matrix(rho, tol)
    joint = mp.composite_state(rm)
    noise = noise_operator(mp, am)
    eps = float(np.sqrt(_second_moment(noise, joint)))
    n_mean = _probe_average(mp, noise)
    del noise
    dist = disturbance_operator(mp, bm)
    eta = float(np.sqrt(_second_moment(dist, joint)))
    d_mean = _probe_average(mp, dist)
    del dist
    sig_a = std_dev(am, rm, tol)
    sig_b = std_dev(bm, rm, tol)
    bound = robertson_bound(am, bm, rm, tol)
    corr = float(abs(np.trace((commutator(n_mean, bm) + commutator(am, d_mean)) @ rm)))
    product = eps * eta
    uedr = product + corr
    oedr = product + eps * sig_b + sig_a * eta
    return EDRReport(
        epsilon=eps,
        eta=eta,
        sigma_a=sig_a,
        sigma_b=sig_b,
        robertson=bound,
        correlation_term=corr,
        heisenberg_product=product,
        uedr_lhs=uedr,
        oedr_lhs=oedr,
        heisenberg_holds=bool(product >= bound - EDR_SLACK),
        uedr_holds=bool(uedr >= bound - EDR_SLACK),
        oedr_holds=bool(oedr >= bound - EDR_SLACK),
    )


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis columns of a subspace of an ambient space."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, k)

    def __post_init__(self):
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise ValidationError("basis must be (ambient_dim, k)")
        gram = dagger(self.basis) @ self.basis
        if float(np.abs(gram - np.eye(self.basis.shape[1])).max()) > 1e-8:
            raise ValidationError("basis columns are not orthonormal")
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def compress(self, op: np.ndarray) -> np.ndarray:
        """B+ X B, the operator viewed inside the subspace."""
        return dagger(self.basis) @ op @ self.basis


_RANK_CUTOFF = 1e-8


def cyclic_subspace(a, rho, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """span{P_i phi_k}: spectral projectors of A applied to eigenvectors
    of rho with eigenvalue above eq_tol.

    This is the set of states the process explores around rho when A is
    the target; locally uniform error/disturbance are suprema over it.
    """
    am = _as_observable_matrix(a, tol)
    rm = _as_state_matrix(rho, tol)
    dec = spectral_decompose(am, tol)
    w, v = np.linalg.eigh(rm)
    cols = []
    for k in range(len(w)):
        if w[k] <= tol.eq_tol:
            continue
        for p in dec.projectors:
            cols.append(p @ v[:, k])
    if not cols:
        raise ValidationError("state has no eigenvalue above eq_tol")
    m = np.stack(cols, axis=1)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > _RANK_CUTOFF))
    if rank == 0:
        raise ValidationError("cyclic subspace collapsed to zero")
    return Subspace(am.shape[0], u[:, :rank])


def _sup_on_subspace(moment_op: np.ndarray, sub: Subspace) -> float:
    compressed = hermitian_part(sub.compress(moment_op))
    top = float(np.linalg.eigvalsh(compressed).max())
    return float(np.sqrt(max(top, 0.0)))


def locally_uniform_rms_error(mp: MeasuringProcess, a, rho, tol: Tolerances = None) -> float:
    """sup of epsilon(A, phi) over unit vectors phi in the cyclic subspace
    of (A, rho): the largest eigenvalue of the compressed noise second
    moment, square-rooted."""
    tol = tol or mp.tol
    sub = cyclic_subspace(a, rho, tol)
    return _sup_on_subspace(noise_moment_operator(mp, a), sub)


def locally_uniform_rms_disturbance(mp: MeasuringProcess, b, rho, tol: Tolerances = None) -> float:
    """sup of eta(B, phi) over the cyclic subspace of (B, rho)."""
    tol = tol or mp.tol
    sub = cyclic_subspace(b, rho, tol)
    return _sup_on_subspace(disturbance_moment_operator(mp, b), sub)
