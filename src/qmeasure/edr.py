"""Root-mean-square error and disturbance of a measuring process.

The noise operator compares the meter after the interaction with the
target observable before it, N(A) = M(dt) - A(0); the disturbance
operator compares a second observable with itself across the
interaction, D(B) = B(dt) - B(0). Each is averaged over the probe
state into a mean operator Tr_probe[X (1 x rho0)] and a second-moment
operator Tr_probe[X^2 (1 x rho0)]; the expectation of the latter in rho
is the squared rms error epsilon(A)^2 or rms disturbance eta(B)^2.

The error depends on the process only through its POVM and the
disturbance only through its channel, so both are computed on the system
from a labelled Kraus stack: the operators K_j of the process's
instrument, each with the outcome value x_j it reports. Every figure takes
a MeasuringProcess or a CPInstrument, and reads either one's stack. With
G_j = x_j K_j - K_j A or G_j = [B, K_j], the mean is sum K_j+ G_j
(F(M) - A, T*(B) - B) and the moment sum G_j+ G_j
(F(M^2) - F(M)A - AF(M) + A^2 and T*(B^2) - T*(B)B - BT*(B) + B^2), PSD
and free of cancellation.

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

import numpy as np

from .instruments import CPInstrument, MeasuringProcess, _KrausStack
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    Tolerances,
    ValidationError,
    _robertson,
    _slack,
    _spectral_std_dev,
    _validated,
    commutator,
    dagger,
    hermitian_part,
    spectral_decompose,
)

def rms_error(source: MeasuringProcess | CPInstrument, a, rho) -> float:
    """epsilon(A, rho) = sqrt(Tr[N(A)^2 (rho x rho0)])."""
    return _Scenario(source, a, None, rho).figures("a")[0]


def rms_disturbance(source: MeasuringProcess | CPInstrument, b, rho) -> float:
    """eta(B, rho) = sqrt(Tr[D(B)^2 (rho x rho0)])."""
    return _Scenario(source, None, b, rho).figures("b")[0]


def _moments(stack: _KrausStack, x: str, s):
    """(mean, moment) of N(A) (x = "a", s = A) or D(B) (x = "b", s = B):
    sum K_j+ G_j and sum G_j+ G_j, G_j = x_j K_j - K_j A or B K_j - K_j B."""
    s = _validated(s, HermitianObservable, stack.tol, stack.system_dim).matrix
    d, k = len(s), stack.kraus
    first = (np.repeat(stack.values, stack.sizes)[:, None, None] * k if x == "a"
             else stack.left(s))
    gf = first.reshape(-1, d) - k.reshape(-1, d) @ s
    return stack.dual(gf), hermitian_part(dagger(gf) @ gf)


def mean_noise_operator(source: MeasuringProcess | CPInstrument, a) -> np.ndarray:
    """n(A) = Tr_probe[N(A) (1 x rho0)] = F(M) - A, a system observable."""
    return _moments(source._kraus_stack, "a", a)[0]


def mean_disturbance_operator(source: MeasuringProcess | CPInstrument, b) -> np.ndarray:
    """d(B) = Tr_probe[D(B) (1 x rho0)] = T*(B) - B, a system observable."""
    return _moments(source._kraus_stack, "b", b)[0]


def noise_moment_operator(source: MeasuringProcess | CPInstrument, a) -> np.ndarray:
    """Second-moment operator Tr_probe[N(A)^2 (1 x rho0)].

    Positive semidefinite; its expectation in a vector state phi is
    epsilon(A, phi)^2.
    """
    return _moments(source._kraus_stack, "a", a)[1]


def disturbance_moment_operator(source: MeasuringProcess | CPInstrument, b) -> np.ndarray:
    """Second-moment operator Tr_probe[D(B)^2 (1 x rho0)]."""
    return _moments(source._kraus_stack, "b", b)[1]


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


def edr_ledger(source: MeasuringProcess | CPInstrument, a, b, rho) -> EDRReport:
    """Evaluate the three error-disturbance relations for one scenario.

    One _moments pass per observable gives the figures of rms_error,
    rms_disturbance and the mean operators; every float field is a Python
    float.
    """
    return _Scenario(source, a, b, rho).ledger()


def cyclic_subspace(a, rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """span{P_i phi_k} as a read-only (d, k) basis V, V+ V = 1: A's spectral
    projectors on the eigenvectors of rho above the _slack of d terms, the
    rank cut at the _slack of as many terms as the span has entries.

    This is the set of states the process explores around rho when A is
    the target; locally uniform error/disturbance are suprema over it.
    """
    a = _validated(a, HermitianObservable, tol)
    rho = _validated(rho, DensityOperator, tol, a.dim)
    return _cyclic_subspace(spectral_decompose(a, tol), rho, tol)


def _cyclic_subspace(dec, rho: DensityOperator, tol: Tolerances) -> np.ndarray:
    """cyclic_subspace from the decomposition of A and the support of rho cut at its
    slack: the left singular vectors of the span, whose column k * #P + i is P_i phi_k."""
    w, v = rho.support
    phi = v[:, w > _slack(tol, terms=rho.dim)]
    if phi.shape[1] == 0:
        raise ValidationError("state has no eigenvalue above eq_tol")
    m = (dec.projectors @ phi).transpose(1, 2, 0).reshape(dec.dim, -1)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = np.count_nonzero(s > _slack(tol, terms=m.size))
    if rank == 0:
        raise ValidationError("cyclic subspace collapsed to zero")
    u.setflags(write=False)
    return u[:, :rank]


def locally_uniform_rms_error(source: MeasuringProcess | CPInstrument, a, rho) -> float:
    """sup of epsilon(A, phi) over unit vectors phi in the cyclic subspace
    of (A, rho): the largest eigenvalue of the compressed noise second
    moment, square-rooted."""
    return _Scenario(source, a, None, rho).locally_uniform("a")


def locally_uniform_rms_disturbance(source: MeasuringProcess | CPInstrument, b, rho) -> float:
    """sup of eta(B, phi) over the cyclic subspace of (B, rho)."""
    return _Scenario(source, None, b, rho).locally_uniform("b")


class _Scenario:
    """One validated (source, A, B, rho) under the Tolerances of the source, a
    MeasuringProcess or CPInstrument read as its labelled Kraus stack, with
    every intermediate shared by its figures computed once.

    A and B (either may be None when only the other is read) are kept as
    HermitianObservable and rho as DensityOperator, with its support,
    validated on construction. The rest is computed on first use and kept,
    per observable x ("a" or "b"): its spectral decomposition, its cyclic
    subspace, one figure pass (_moments of N(A) for "a", of D(B) for "b")
    and the top eigenvalue of the compressed second moment. Every figure
    reads these entries, so the figures may be read in any order.
    """

    def __init__(self, source: MeasuringProcess | CPInstrument, a, b, rho):
        self.source = source
        self.stack = source._kraus_stack
        self.tol = self.stack.tol
        self.obs = {x: _validated(op, HermitianObservable, self.tol, self.stack.system_dim)
                    for x, op in (("a", a), ("b", b)) if op is not None}
        self.rho = _validated(rho, DensityOperator, self.tol, self.stack.system_dim)
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def decomposition(self, x: str):
        return self._once(("decomposition", x), lambda: spectral_decompose(self.obs[x], self.tol))

    def cyclic(self, x: str) -> np.ndarray:
        return self._once(("cyclic", x), lambda: _cyclic_subspace(
            self.decomposition(x), self.rho, self.tol))

    def figures(self, x: str):
        """(rms, mean operator, second-moment operator) of X = N(A) for
        x = "a", of X = D(B) for x = "b", from one _moments pass, with
        rms^2 = Tr[rho Tr_probe[X^2 (1 x rho0)]]."""
        def make():
            mean, moment = _moments(self.stack, x, self.obs[x])
            trace = float(np.einsum("ab,ba->", moment, self.rho.matrix).real)
            return float(np.sqrt(max(trace, 0.0))), mean, moment
        return self._once(("figures", x), make)

    def top(self, x: str) -> float:
        """Largest eigenvalue of V+ T V: the second-moment operator T
        compressed to the basis V of the cyclic subspace of (x, rho)."""
        return self._once(("top", x), lambda: float(np.linalg.eigvalsh(hermitian_part(
            dagger(self.cyclic(x)) @ self.figures(x)[2] @ self.cyclic(x))).max()))

    def locally_uniform(self, x: str) -> float:
        """sup of the rms figure over the unit vectors of the cyclic subspace."""
        return float(np.sqrt(max(self.top(x), 0.0)))

    def holds(self, lhs: float, bound: float) -> bool:
        """lhs >= bound within the slack of ||A|| ||B||, max-abs norms."""
        return bool(lhs >= bound - self._once("slack", lambda: _slack(self.tol, float(
            np.abs(self.obs["a"].matrix).max() * np.abs(self.obs["b"].matrix).max()))))

    def ledger(self) -> EDRReport:
        am, bm, rm = self.obs["a"].matrix, self.obs["b"].matrix, self.rho.matrix
        eta, d_mean, _ = self.figures("b")
        eps, n_mean, _ = self.figures("a")
        sig_a = _spectral_std_dev(am, self.rho)
        sig_b = _spectral_std_dev(bm, self.rho)
        bound = _robertson(am, bm, rm)
        corr = float(abs(((commutator(n_mean, bm) + commutator(am, d_mean)) @ rm).trace()))
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
