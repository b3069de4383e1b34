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
Every inequality flag allows the slack of ||A|| ||B||: eq_tol times the
product of the max-abs entries of A and B, so no flag depends on units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instruments import MeasuringProcess
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    Tolerances,
    ValidationError,
    _as_observable_matrix,
    _as_state_matrix,
    _check_dims,
    _robertson,
    _slack,
    _spectral_std_dev,
    commutator,
    dagger,
    hermitian_part,
    spectral_decompose,
    tensor,
)

def noise_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """N(A) = M(dt) - A(0) on the composite space."""
    return mp.evolved_meter() - mp.embedded_system(a)


def disturbance_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """D(B) = B(dt) - B(0) on the composite space."""
    b0 = mp.embedded_system(b)
    return mp._evolve(b0) - b0


def rms_error(mp: MeasuringProcess, a, rho) -> float:
    """epsilon(A, rho) = sqrt(Tr[N(A)^2 (rho x rho0)])."""
    return _Scenario(mp, a, None, rho, mp.tol).figures("a")[0]


def rms_disturbance(mp: MeasuringProcess, b, rho) -> float:
    """eta(B, rho) = sqrt(Tr[D(B)^2 (rho x rho0)])."""
    return _Scenario(mp, None, b, rho, mp.tol).figures("b")[0]


def mean_noise_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """n(A) = Tr_probe[N(A) (1 x rho0)], a system observable."""
    return mp._probe_average(noise_operator(mp, a))


def mean_disturbance_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """d(B) = Tr_probe[D(B) (1 x rho0)], a system observable."""
    return mp._probe_average(disturbance_operator(mp, b))


def noise_moment_operator(mp: MeasuringProcess, a) -> np.ndarray:
    """Second-moment operator Tr_probe[N(A)^2 (1 x rho0)].

    Positive semidefinite; its expectation in a vector state phi is
    epsilon(A, phi)^2.
    """
    n = noise_operator(mp, a)
    return mp._probe_average(n @ n)


def disturbance_moment_operator(mp: MeasuringProcess, b) -> np.ndarray:
    """Second-moment operator Tr_probe[D(B)^2 (1 x rho0)]."""
    d = disturbance_operator(mp, b)
    return mp._probe_average(d @ d)


@dataclass(frozen=True)
class EDRReport:
    """One evaluation of the error-disturbance inequalities.

    heisenberg_product = epsilon*eta, uedr_lhs adds the correlation term,
    oedr_lhs adds the standard-deviation cross terms. Each *_holds flag
    compares its left side against the robertson bound, allowing the
    slack of ||A|| ||B|| in the max-abs norm.
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
    return _Scenario(mp, a, b, rho, tol or mp.tol).ledger()


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
    _check_dims(am, rm)
    return _cyclic_subspace(spectral_decompose(am, tol), np.linalg.eigh(rm), tol)


def _cyclic_subspace(dec, rho_spectrum, tol: Tolerances) -> Subspace:
    """cyclic_subspace from the decomposition of A and the eigh pair of rho;
    column k * #P + i of the spanning set is P_i phi_k."""
    w, v = rho_spectrum
    phi = v[:, w > tol.eq_tol]
    if phi.shape[1] == 0:
        raise ValidationError("state has no eigenvalue above eq_tol")
    m = (dec.projectors @ phi).transpose(1, 2, 0).reshape(dec.dim, -1)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > _RANK_CUTOFF))
    if rank == 0:
        raise ValidationError("cyclic subspace collapsed to zero")
    return Subspace(dec.dim, u[:, :rank])


def locally_uniform_rms_error(mp: MeasuringProcess, a, rho, tol: Tolerances = None) -> float:
    """sup of epsilon(A, phi) over unit vectors phi in the cyclic subspace
    of (A, rho): the largest eigenvalue of the compressed noise second
    moment, square-rooted."""
    return _Scenario(mp, a, None, rho, tol or mp.tol).locally_uniform("a")


def locally_uniform_rms_disturbance(mp: MeasuringProcess, b, rho, tol: Tolerances = None) -> float:
    """sup of eta(B, phi) over the cyclic subspace of (B, rho)."""
    return _Scenario(mp, None, b, rho, tol or mp.tol).locally_uniform("b")


class _Scenario:
    """One validated (process, A, B, rho) under one Tolerances, with every
    intermediate shared by its figures computed once.

    A and B (either may be None when only the other is read) are kept as
    HermitianObservable and rho as its matrix, validated on construction.
    The rest is computed on first use and kept: rho x rho0 for the joint
    distributions, the eigh pair of rho, and per observable x ("a" or "b")
    its spectral decomposition, its cyclic subspace, one pass over its
    composite operator (N(A) for "a", D(B) for "b") and the top eigenvalue
    of the compressed second moment.

    A pass gives the rms figure and the mean operator, and the
    second-moment operator only when asked; read a second-moment figure
    (locally uniform, top) before the ledger when both are wanted, so that
    one pass serves both. A pass releases its n x n operators before
    returning, so one composite operator is alive at a time besides M(dt).
    """

    def __init__(self, mp: MeasuringProcess, a, b, rho, tol: Tolerances):
        self.mp = mp
        self.tol = tol
        self.obs = {x: mp._on_system(op, HermitianObservable, tol)
                    for x, op in (("a", a), ("b", b)) if op is not None}
        self.rho = mp._on_system(rho, DensityOperator, tol).matrix
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @cached_property
    def joint(self) -> np.ndarray:
        """rho x rho0."""
        return tensor(self.rho, self.mp.probe_state.matrix)

    @cached_property
    def rho_spectrum(self):
        return np.linalg.eigh(self.rho)

    def decomposition(self, x: str):
        return self._once(("decomposition", x), lambda: spectral_decompose(self.obs[x], self.tol))

    def cyclic(self, x: str) -> Subspace:
        return self._once(("cyclic", x), lambda: _cyclic_subspace(
            self.decomposition(x), self.rho_spectrum, self.tol))

    def figures(self, x: str, moment: bool = False):
        """(rms, mean operator, second-moment operator or None) of N(A)
        for x = "a", of D(B) for x = "b", from one build of the operator."""
        got = self._memo.get(("figures", x))
        if got is None or (moment and got[2] is None):
            op = (noise_operator if x == "a" else disturbance_operator)(self.mp, self.obs[x])
            mean = self.mp._probe_average(op)
            square = op @ op
            del op
            # a rho x rho0 of its own, dropped at once: a kept one would be
            # alive beside M(dt), N(A) and the probe average's operands
            trace = float(np.trace(square @ tensor(self.rho, self.mp.probe_state.matrix)).real)
            rms = float(np.sqrt(max(trace, 0.0)))
            got = (rms, mean, self.mp._probe_average(square) if moment else None)
            self._memo[("figures", x)] = got
        return got

    def top(self, x: str) -> float:
        """Largest eigenvalue of the second-moment operator compressed to
        the cyclic subspace of (x, rho)."""
        return self._once(("top", x), lambda: float(np.linalg.eigvalsh(hermitian_part(
            self.cyclic(x).compress(self.figures(x, moment=True)[2]))).max()))

    def locally_uniform(self, x: str) -> float:
        """sup of the rms figure over the unit vectors of the cyclic subspace."""
        return float(np.sqrt(max(self.top(x), 0.0)))

    def holds(self, lhs: float, bound: float) -> bool:
        """lhs >= bound within the slack of ||A|| ||B||, max-abs norms."""
        scale = float(np.abs(self.obs["a"].matrix).max() * np.abs(self.obs["b"].matrix).max())
        return bool(lhs >= bound - _slack(self.tol, scale))

    def ledger(self) -> EDRReport:
        am, bm, rm = self.obs["a"].matrix, self.obs["b"].matrix, self.rho
        # D(B) first: building B(dt) then does not overlap a newly cached M(dt)
        eta, d_mean, _ = self.figures("b")
        eps, n_mean, _ = self.figures("a")
        sig_a = _spectral_std_dev(am, rm, self.rho_spectrum)
        sig_b = _spectral_std_dev(bm, rm, self.rho_spectrum)
        bound = _robertson(am, bm, rm)
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
            heisenberg_holds=self.holds(product, bound),
            uedr_holds=self.holds(uedr, bound),
            oedr_holds=self.holds(oedr, bound),
        )
