"""Measuring processes, CP instruments, and POVMs.

A measuring process is the quadruple (probe space, probe state, coupling
unitary, meter observable). Reading the meter after the interaction
induces a completely positive instrument on the system: an outcome-indexed
family of CP maps summing to a trace-preserving channel. Every CP
instrument conversely arises this way, and dilate() constructs an explicit
realization with a pure probe.

Conventions: composite operators live on system x probe (kron order),
instrument outcomes are distinct reals sorted ascending, operator families
are read-only stacks, and instrument equality is always judged on
per-outcome Choi matrices, never on Kraus lists (the Kraus gauge is not
unique).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    SpectralDecomposition,
    Tolerances,
    ValidationError,
    _EPS,
    _Immutable,
    _as_array,
    _as_operators,
    _cluster_labels,
    _number,
    _numbers,
    _slack,
    _spectral_std_dev,
    _validated,
    as_operator,
    dagger,
    hermitian_part,
    operator_distance,
    spectral_decompose,
    tensor,
)


class ZeroProbabilityError(ValidationError):
    """Conditioning on an outcome set of (numerically) zero probability."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Real outcome values with their probabilities."""

    outcomes: tuple
    probabilities: tuple

    def __post_init__(self):
        if len(self.outcomes) != len(self.probabilities):
            raise ValidationError("outcomes and probabilities must have equal length")

    def as_dict(self) -> dict:
        return {"outcomes": list(self.outcomes), "probabilities": list(self.probabilities)}

    def mean(self) -> float:
        return float(sum(x * p for x, p in zip(self.outcomes, self.probabilities)))

    def variance(self) -> float:
        m = self.mean()
        return float(sum((x - m) ** 2 * p for x, p in zip(self.outcomes, self.probabilities)))


def _born(effects: np.ndarray, rm: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Pr{m} = Tr[E_m rho] over a stack of effects and a state of their dimension,
    checked where the state entered; raises on a probability below psd_tol
    (the rest are clipped at 0) or a total off 1 (_slack of d^2 #m terms)."""
    probs = np.einsum("iab,ba->i", effects, rm).real
    if probs.min() < tol.psd_tol:
        raise ValidationError(f"negative probability {probs.min()}")
    probs = np.maximum(probs, 0.0)
    total = float(probs.sum())
    if abs(total - 1.0) > _slack(tol, terms=effects.shape[-1] ** 2 * len(probs)):
        raise ValidationError(f"probabilities sum to {total}, expected 1")
    return probs


def born_distribution(a, rho, tol: Tolerances = DEFAULT_TOL) -> OutcomeDistribution:
    """Outcome statistics Pr{a_i} = Tr[P_i rho] of an observable in a state."""
    dec = spectral_decompose(a, tol)
    probs = _born(dec.projectors, _validated(rho, DensityOperator, tol, dec.dim).matrix, tol)
    return OutcomeDistribution(tuple(map(float, dec.eigenvalues)), tuple(probs.tolist()))


@dataclass(frozen=True, eq=False)
class _KrausStack:
    """The labelled Kraus stack of a process or instrument, which every figure
    but the strong precision face reads: kraus is one read-only (R, d, d)
    stack of operators K_j, its rows running outcome by outcome, sizes[m] of
    them (0 for an outcome without operators) reporting values[m], distinct
    and ascending. tol is the Tolerances of the process or instrument."""

    values: np.ndarray
    sizes: np.ndarray
    kraus: np.ndarray
    tol: Tolerances

    def __post_init__(self):
        self.kraus.setflags(write=False)

    @property
    def system_dim(self) -> int:
        return self.kraus.shape[-1]

    def left(self, ops: np.ndarray) -> np.ndarray:
        """X K_j for an operator X or a stack of them, one row per K_j."""
        return ops[..., None, :, :] @ self.kraus

    def dual(self, g: np.ndarray) -> np.ndarray:
        """sum K_j+ G_j, Hermitian part, for g shaped like kraus, flattened to
        (R d, d) rows, or a stack of kraus-shaped arrays: the channel
        T*(X) = sum K_j+ X K_j for g = left(X)."""
        d = self.system_dim
        return hermitian_part(dagger(self.kraus.reshape(-1, d)) @ g.reshape(g.shape[:-3] + (-1, d)))

    @cached_property
    def effects(self) -> np.ndarray:
        """The POVM E_m = sum_{j in m} K_j+ K_j as one read-only (m, d, d)
        stack in values order: the rows' K_j+ K_j, summed over each outcome's
        rows by one product with the row-to-outcome indicator."""
        d, k = self.system_dim, self.kraus
        rows = np.eye(len(self.sizes)).repeat(self.sizes, axis=1)
        effects = hermitian_part((rows @ (dagger(k) @ k).reshape(len(k), -1)).reshape(-1, d, d))
        effects.setflags(write=False)
        return effects


# Rows per panel of the unitarity check: n <= 64 is one panel, the whole
# product in one call; above, each panel's conjugated columns, product and
# abs are at most 64 x n, so the check needs O(64 n) memory beside U, and a
# 64-row product still runs near the flop rate of a square one.
_PANEL = 64


class MeasuringProcess(_Immutable):
    """Probe state, coupling unitary, and meter observable.

    The system dimension is inferred from the unitary, which acts on system x
    probe. The unitary is checked as max|U+U - 1| within the slack of its n
    terms, over the upper triangle of U+U (Hermitian for any U, so every
    deviation shows there) in panels of _PANEL rows: besides the kept copy
    of U, no n x n array is built. The probe state, the meter (on the probe's
    dimension) and the composite methods' arguments (on the system's) enter
    through _validated.
    Immutable: what depends on the process alone (the meter's spectral measure,
    the labelled Kraus stack, and M(dt) when asked for) is a cached_property,
    computed on first use, kept, and judged under its Tolerances. Figures read
    it through its labelled Kraus stack, the instrument of reading the meter:
    row (i, l) is K = sum_b conj(q[b, i]) sqrt(lam_l) (1 x <e_b|) U (1 x |phi_l>),
    with rho0 = sum lam_l |phi_l><phi_l| and q the meter's eigenvectors,
    and reports the eigenvalue of column i.
    """

    def __init__(self, probe_state: DensityOperator, unitary, meter: HermitianObservable,
                 tol: Tolerances = DEFAULT_TOL):
        probe_state = _validated(probe_state, DensityOperator, tol)
        meter = _validated(meter, HermitianObservable, tol, probe_state.dim)
        u = as_operator(unitary)
        if u.shape[0] % probe_state.dim != 0:
            raise ValidationError("unitary dimension is not a multiple of the probe dimension")
        n = u.shape[0]
        dev = 0.0
        for i in range(0, n, _PANEL):
            g = dagger(u[:, i:i + _PANEL]) @ u[:, i:]
            g[np.diag_indices(len(g))] -= 1.0
            dev = max(dev, float(np.abs(g).max()))
        if dev > _slack(tol, terms=n):
            raise ValidationError("coupling matrix is not unitary within eq_tol")
        self._init_fields(probe_state=probe_state, unitary=u, meter=meter,
                          probe_dim=probe_state.dim, system_dim=u.shape[0] // probe_state.dim,
                          tol=tol)

    def _evolve(self, big: np.ndarray) -> np.ndarray:
        """U+ X U for a composite operator X, Hermitian part."""
        return hermitian_part(dagger(self.unitary) @ big @ self.unitary)

    def composite_state(self, rho) -> np.ndarray:
        """rho x rho0 on system x probe."""
        return tensor(_validated(rho, DensityOperator, self.tol, self.system_dim), self.probe_state)

    def embedded_system(self, a) -> np.ndarray:
        """A(0) = A x 1, the system observable before the interaction."""
        return tensor(_validated(a, HermitianObservable, self.tol, self.system_dim),
                      np.eye(self.probe_dim))

    def evolved_meter(self) -> np.ndarray:
        """M(dt) = U+ (1 x M) U, the meter after the interaction.

        Computed once; every call returns the same read-only array.
        """
        return self._evolved_meter

    @cached_property
    def _evolved_meter(self) -> np.ndarray:
        m_dt = self._evolve(tensor(np.eye(self.system_dim), self.meter.matrix))
        m_dt.setflags(write=False)
        return m_dt

    def evolved_system(self, b) -> np.ndarray:
        """B(dt) = U+ (B x 1) U, the system observable after the interaction."""
        return self._evolve(self.embedded_system(b))

    @cached_property
    def _meter_measure(self) -> SpectralDecomposition:
        """The meter's spectral measure, behind every reading of the meter."""
        return spectral_decompose(self.meter, self.tol)

    @cached_property
    def _kraus_stack(self) -> _KrausStack:
        """The labelled Kraus stack, row (i, l) for column i of the meter's
        eigenvector blocks q and probe eigenvalue l, l running fastest, over
        the probe eigenvalues above d_p * machine eps, the rounding level of a
        unit-trace matrix."""
        ds, dp = self.system_dim, self.probe_dim
        lam, phi = self.probe_state.spectrum
        keep = lam > dp * _EPS
        # t[a, b, c, l] = sum_e U[(a, b), (c, e)] sqrt(lam_l) phi_l[e], one 2-D product
        t = (self.unitary.reshape(-1, dp) @ (phi[:, keep] * np.sqrt(lam[keep]))).reshape(
            ds, dp, ds, -1)
        dm = self._meter_measure
        # k[(i, l), a, c] = sum_b conj(q[b, i]) t[a, b, c, l], i over the concatenated blocks
        q = np.concatenate(dm.blocks, axis=1)
        k = (dagger(q) @ t.transpose(1, 3, 0, 2).reshape(dp, -1)).reshape(-1, ds, ds)
        sizes = np.array([block.shape[1] for block in dm.blocks]) * t.shape[-1]
        return _KrausStack(dm.eigenvalues, sizes, k, self.tol)

    def __repr__(self):
        return f"MeasuringProcess(system_dim={self.system_dim}, probe_dim={self.probe_dim})"


def _apply_kraus(kraus_ops, rho) -> np.ndarray:
    """Sum_j K_j rho K_j+ for one outcome's Kraus family."""
    rm = _as_array(rho, 2)
    ks = _as_operators(kraus_ops, len(rm))
    return (ks @ rm @ dagger(ks)).sum(axis=0)


def _choi_matrix(kraus_ops, dim: int) -> np.ndarray:
    """Choi matrix C[(i,m),(j,n)] = Phi(|i><j|)[m,n] of one outcome's CP map."""
    v = _as_operators(kraus_ops, dim).swapaxes(1, 2).reshape(-1, dim * dim)  # v[j, (i,m)] = K_j[m,i]
    return v.T @ v.conj()


def kraus_from_choi(choi, dim: int, cutoff: float) -> list:
    """Kraus operators of a CP map from its Choi eigendecomposition.

    Eigenvalues at or below cutoff, which must not be negative, are
    discarded. Operators come out ordered by descending Choi eigenvalue.
    """
    choi = _as_array(choi, 2, dim=dim * dim)
    if not _number(cutoff, "cutoff") >= 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    w, v = np.linalg.eigh(hermitian_part(choi))
    w, v = w[::-1], v[:, ::-1]
    r = int(np.sum(w > cutoff))
    # column j of v is vec(K_j), with vec(K)[(i, m)] = K[m, i] as in _choi_matrix
    return list(np.sqrt(w[:r])[:, None, None] * v[:, :r].T.reshape(r, dim, dim).swapaxes(1, 2))


class CPInstrument(_Immutable):
    """Outcome-indexed family of CP maps summing to a channel, immutable.

    outcomes are distinct reals sorted ascending; kraus[m] is a read-only
    (r_m, d, d) view of the labelled Kraus stack _kraus_stack, the families
    concatenated in outcome order, (0, d, d) for an outcome without Kraus
    operators. Each family (a list, tuple or stack) is converted and
    checked as one array. The POVM of the stack's effects is kept, and
    validates the families.
    """

    def __init__(self, outcomes, kraus, tol: Tolerances = DEFAULT_TOL):
        stacks = [_as_operators(fam) for fam in kraus]
        dims = {k.shape[-1] for k in stacks if len(k)}
        if len(dims) > 1:
            raise ValidationError("all Kraus operators must share one dimension")
        if not dims:
            raise ValidationError("instrument has no Kraus operators at all")
        dim = dims.pop()
        stacks = [k if len(k) else _as_operators(k, dim) for k in stacks]
        outcomes = _as_array(outcomes, 1, real=True)
        if len(outcomes) != len(stacks):
            raise ValidationError("need one Kraus family per outcome")
        order = np.argsort(outcomes)
        stack = _KrausStack(np.sort(outcomes), np.array([len(stacks[i]) for i in order]),
                            np.concatenate([stacks[i] for i in order]), tol)
        povm = POVM(stack.values, stack.effects, tol)
        kraus = tuple(np.split(stack.kraus, np.cumsum(stack.sizes)[:-1]))
        self._init_fields(outcomes=povm.outcomes, kraus=kraus, dim=dim, tol=tol, _povm=povm,
                          _kraus_stack=stack)

    def _select(self, outcome_set) -> list:
        """Indices of the outcomes nearest to a value or to each of a list, tuple or
        array of values, read by _numbers, each within the slack of the largest |outcome|."""
        targets = outcome_set.tolist() if isinstance(outcome_set, np.ndarray) else outcome_set
        slack = _slack(self.tol, float(np.abs(self.outcomes).max()))
        idx = set()
        for target in _numbers(targets if isinstance(targets, (list, tuple)) else [targets], "outcome"):
            gap, i = min((abs(x - target), i) for i, x in enumerate(self.outcomes))
            if not gap <= slack:
                raise ValidationError(f"outcome {target} not found in instrument")
            idx.add(i)
        return sorted(idx)

    def apply(self, rho, outcome_set=None) -> np.ndarray:
        """Unnormalized state change I(D)rho, D defaulting to all outcomes."""
        idx = range(len(self.outcomes)) if outcome_set is None else self._select(outcome_set)
        ops = [self.kraus[i] for i in idx]
        return _apply_kraus(np.concatenate(ops) if ops else [], rho)

    def effect(self, i: int) -> np.ndarray:
        """POVM effect sum_j K+K of the i-th outcome, read-only."""
        return self._povm.effects[i]

    def choi(self, i: int) -> np.ndarray:
        return _choi_matrix(self.kraus[i], self.dim)

    def __repr__(self):
        return f"CPInstrument(outcomes={self.outcomes}, dim={self.dim})"


class POVM(_Immutable):
    """Positive effects, one per outcome, summing to the identity within the
    _slack of d * m terms; immutable, with distinct real outcomes (read by
    _as_array) sorted ascending and the effects as one read-only (m, d, d)
    stack in that order, converted and checked as one array. The one
    validator of an outcome family, an instrument's effects included."""

    def __init__(self, outcomes, effects, tol: Tolerances = DEFAULT_TOL):
        effs = _as_operators(effects)
        if not len(effs):
            raise ValidationError("POVM needs at least one outcome")
        outcomes = _as_array(outcomes, 1, real=True)
        if len(outcomes) != len(effs):
            raise ValidationError("need one effect per outcome")
        if len(set(outcomes.tolist())) != len(outcomes):
            raise ValidationError("outcome values must be distinct")
        order = np.argsort(outcomes)
        effs = hermitian_part(effs[order])
        if float(np.linalg.eigvalsh(effs).min()) < tol.psd_tol:
            raise ValidationError("effect is not positive semidefinite")
        d = effs.shape[-1]
        total = effs.sum(axis=0)
        total[np.diag_indices(d)] -= 1.0
        if float(np.abs(total).max()) > _slack(tol, terms=d * len(effs)):
            raise ValidationError("effects do not sum to the identity")
        effs.setflags(write=False)
        self._init_fields(outcomes=tuple(outcomes[order].tolist()), effects=effs, dim=d, tol=tol)

    def probabilities(self, rho) -> OutcomeDistribution:
        rm = _validated(rho, DensityOperator, self.tol, self.dim).matrix
        probs = _born(self.effects, rm, self.tol)
        return OutcomeDistribution(self.outcomes, tuple(probs.tolist()))

    def __repr__(self):
        return f"POVM(outcomes={self.outcomes}, dim={self.dim})"


def instrument_from_process(mp: MeasuringProcess) -> CPInstrument:
    """The CP instrument induced by reading the meter of a process.

    For each spectral value m of the meter,
    I(m)rho = Tr_probe[(1 x Q_m) U (rho x rho0) U+ (1 x Q_m)] has as Kraus
    family the rows of m in the process's labelled Kraus stack: r_m L
    rows, r_m the multiplicity of m and L the number of probe eigenvalues
    kept. The family is reduced to minimal rank by an SVD of its stacked
    columns vec(K_j): the outcome's Choi matrix is V V+ (the same as from
    the projector's d_p L operators, since q_m+ q_m = 1 for the eigenvector
    columns q_m of m), so its eigenvectors are the left singular vectors
    and its eigenvalues s^2.
    All outcomes go through one stacked SVD, each family zero-padded to the
    most rows; zero columns add only zero singular values. Operators go at
    s <= 16 * max(d_s^2, R) * eps, R = d_p L the rows of the stack, the
    rounding of a unit-scale family (sum K+K = 1) whatever eq_tol is, the
    rest ordered by descending Choi eigenvalue. The instrument carries the
    process's Tolerances.
    """
    stack = mp._kraus_stack
    g, sizes, d = stack.kraus, stack.sizes, stack.system_dim
    padded = np.zeros((len(sizes), max(sizes), d, d), dtype=complex)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    padded[labels, np.arange(len(g)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = g
    # column j of outcome m is vec(K_j), with vec(K)[(c, a)] = K[a, c] as in _choi_matrix
    v = padded.transpose(0, 3, 2, 1).reshape(len(sizes), d * d, -1)
    w, s, _ = np.linalg.svd(v, full_matrices=False)
    ranks = np.sum(s > 16 * max(d * d, len(g)) * _EPS, axis=1)
    # K_j[a, c] = s_j w[(c, a), j]
    kraus = s[..., None, None] * w.swapaxes(1, 2).reshape(s.shape + (d, d)).swapaxes(2, 3)
    return CPInstrument(stack.values, [ops[:r] for ops, r in zip(kraus, ranks)], tol=mp.tol)


def povm_of(instrument: CPInstrument) -> POVM:
    """The outcome statistics of an instrument as a POVM: the one it keeps."""
    return instrument._povm


def outcome_probabilities(instrument: CPInstrument, rho) -> OutcomeDistribution:
    """Pr{m} = Tr[I(m) rho] = Tr[E_m rho] for each outcome."""
    return instrument._povm.probabilities(rho)


def post_state(instrument: CPInstrument, outcome_set, rho) -> DensityOperator:
    """Normalized state after observing an outcome in outcome_set.

    Raises ZeroProbabilityError if the conditioning probability is at or
    below the _slack of d^2 terms (zero-probability condition).
    """
    tol = instrument.tol
    rm = _validated(rho, DensityOperator, tol, instrument.dim).matrix
    unnorm = instrument.apply(rm, outcome_set)
    p = float(np.trace(unnorm).real)
    if p <= _slack(tol, terms=rm.shape[0] ** 2):
        raise ZeroProbabilityError(
            f"zero-probability condition: outcome set has probability {p}")
    return DensityOperator(hermitian_part(unnorm) / p, tol=tol)


def luders_instrument(a, tol: Tolerances = DEFAULT_TOL) -> CPInstrument:
    """The projective instrument rho -> P_i rho P_i of an observable."""
    dec = spectral_decompose(a, tol)
    return CPInstrument(dec.eigenvalues, dec.projectors[:, None], tol=tol)


def dilate(instrument: CPInstrument) -> MeasuringProcess:
    """An explicit measuring process realizing a CP instrument.

    The probe dimension is the total Kraus count r, with one block of
    size r_m per outcome. The coupling maps psi x e0 to
    sum_{m,j} (K_{m,j} psi) x |m,j>: its columns at the probe index
    e0 = 0 are the stacked Kraus columns, an isometry V because
    sum K+K = 1. The remaining n - d columns, in index order, are the
    orthonormal complement Q[:, d:] of the QR factorization V = QR, so the
    construction is deterministic. Q = H_1 ... H_d is never formed: with
    the thin QR's Householder reflectors as the columns of the unit lower
    trapezoidal W (n x d) and tau = diag(D) their scalings, the compact WY
    form Q = 1 - W T W+, T = (1 + D striu(W+ W))^-1 D (Schreiber and Van
    Loan 1989), gives Q[:, d:] = E[:, d:] - W T W[d:]+ from one d x d
    triangular solve and one n x d by d x n product, which writes the whole
    coupling (zero at the Kraus columns, then overwritten). A tau_k = 0 (a
    column already on e_k, as in Lüders instruments of diagonal observables)
    zeroes row and column k of T, as LAPACK's zlarft does. The probe
    starts in the pure state |e0> (the first block vector) and the meter
    takes the value outcomes[m] on block m. Reading the meter of the
    resulting process reproduces the instrument (per-outcome Choi
    agreement), and the process carries the instrument's Tolerances.
    """
    tol, stack = instrument.tol, instrument._kraus_stack
    d, probe_dim = stack.system_dim, len(stack.kraus)
    n = d * probe_dim

    # iso[(s, b), i] = K_b[s, i], the row of component (s, b) being s*probe_dim + b
    iso = stack.kraus.swapaxes(0, 1).reshape(n, d)
    # h.T holds R on and above the diagonal and the reflectors below it; W keeps
    # the reflectors, with their unit leading entries on the diagonal
    h, tau = np.linalg.qr(iso, mode="raw")
    below = np.arange(n)[:, None] > np.arange(d)
    w = h.T * below
    np.fill_diagonal(w, 1.0)
    wh = dagger(w)
    # 1 + D striu(W+ W), unit upper triangular, so the solve pivots nowhere
    m = wh @ w * below[:d].T * tau[:, None]
    np.fill_diagonal(m, 1.0)
    # column (i, b) of u is i*probe_dim + b: psi_i x e0 at b = 0, the complement after;
    # -D W[d:]+ goes to the complement's columns, so one product writes all of u
    rhs = np.zeros((d, d, probe_dim), dtype=complex)
    rhs[:, :, 1:] = (wh[:, d:] * -tau[:, None]).reshape(d, d, probe_dim - 1)
    u = w @ np.linalg.solve(m, rhs.reshape(d, n))
    cols = u.reshape(n, d, probe_dim)
    cols[:, :, 0] = iso
    # E[:, d:]: complement column (i, b) has its 1 in row d + (i, b - 1)
    ones = np.einsum("ibib->ib", u[d:].reshape(d, probe_dim - 1, d, probe_dim)[..., 1:])
    ones += 1.0

    meter = HermitianObservable(np.diag(np.repeat(stack.values, stack.sizes)), tol=tol)
    e0 = np.zeros(probe_dim)
    e0[0] = 1.0
    probe = DensityOperator.pure(e0, tol=tol)
    return MeasuringProcess(probe, u, meter, tol=tol)


def instrument_choi_distance(a: CPInstrument, b: CPInstrument) -> float:
    """Max-abs distance between per-outcome Choi matrices of two instruments.

    Outcomes are matched by value, by _cluster_labels over both outcome
    runs under the instruments' common Tolerances; an outcome
    present on one side only is compared against the zero map. Raises
    ValidationError when the two instruments carry different Tolerances.
    """
    if a.tol != b.tol:
        raise ValidationError(f"instruments carry different Tolerances: {a.tol} vs {b.tol}")
    if a.dim != b.dim:
        raise ValidationError("instruments act on different dimensions")
    labels = _cluster_labels(a.outcomes + b.outcomes, a.tol)
    sums = np.zeros((2, labels.max() + 1, a.dim ** 2, a.dim ** 2), dtype=complex)
    for side, (inst, lab) in enumerate(zip((a, b), np.split(labels, [len(a.outcomes)]))):
        for i, label in enumerate(lab):
            sums[side, label] += inst.choi(i)
    return max(operator_distance(ca, cb) for ca, cb in zip(sums[0], sums[1]))


@dataclass(frozen=True)
class RepeatabilityReport:
    """Residuals r(a) = sqrt(Tr[(A - a) rho_a (A - a)]) per observed outcome.

    repeatable means every residual is at most epsilon plus the noise
    floor of check_repeatability. The ar_bound_ok flag records the
    approximate-repeatability corollary sigma(A, rho_a) <= r(a) on each
    post-measurement state.
    """

    repeatable: bool
    worst_residual: float
    outcomes: tuple
    residuals: tuple
    post_std_devs: tuple
    ar_bound_ok: bool


def check_repeatability(instrument: CPInstrument, a, rho, epsilon: float) -> RepeatabilityReport:
    """Check epsilon-repeatability outcome by outcome.

    Each outcome m is conditioned on by its own Kraus family, with the
    post-measurement state I(m)rho / Pr{m}; outcomes with probability within
    the _slack of d^2 terms are skipped. The residual about the raw outcome
    label (an eigenvalue of A or not) is summed over the spectrum of rho_a, as
    sigma(A, rho_a) is. The repeatable flag and the AR comparison allow a
    noise floor of sqrt(machine eps) times dim * max|A_ij|, or the slack
    of that scale if larger.
    """
    if not _number(epsilon, "epsilon") >= 0:
        raise ValidationError(f"epsilon must be a number >= 0, got {epsilon!r}")
    tol = instrument.tol
    am = _validated(a, HermitianObservable, tol, instrument.dim).matrix
    rm = _validated(rho, DensityOperator, tol, instrument.dim).matrix
    scale = float(np.abs(am).max()) * am.shape[0]
    floor = max(_slack(tol, scale), float(np.sqrt(_EPS)) * scale)
    outs, residuals, sds = [], [], []
    probs = _born(instrument._povm.effects, rm, tol).tolist()
    for x, kraus, p in zip(instrument.outcomes, instrument.kraus, probs):
        if p <= _slack(tol, terms=rm.shape[0] ** 2):
            continue
        rho_a = DensityOperator(hermitian_part(_apply_kraus(kraus, rm)) / p, tol=tol)
        outs.append(float(x))
        residuals.append(_spectral_std_dev(am, rho_a, centre=x))
        sds.append(_spectral_std_dev(am, rho_a))
    worst = max(residuals) if residuals else 0.0
    ar_ok = all(s <= r + floor for s, r in zip(sds, residuals))
    return RepeatabilityReport(
        repeatable=bool(worst <= epsilon + floor),
        worst_residual=worst,
        outcomes=tuple(outs),
        residuals=tuple(residuals),
        post_std_devs=tuple(sds),
        ar_bound_ok=bool(ar_ok),
    )
