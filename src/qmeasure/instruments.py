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

import numpy as np

from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    SpectralDecomposition,
    Tolerances,
    ValidationError,
    _Immutable,
    _as_matrix,
    _as_observable_matrix,
    _as_state_matrix,
    _check_dims,
    _cluster_labels,
    _slack,
    _spectral_measure,
    _spectral_std_dev,
    as_operator,
    dagger,
    hermitian_part,
    operator_distance,
    partial_trace,
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


def _born(outcomes, effects: np.ndarray, rm: np.ndarray, tol: Tolerances) -> OutcomeDistribution:
    """Pr{m} = Tr[E_m rho] over a stack of effects; raises on a probability
    below psd_tol (the rest are clipped at 0) or a total off 1."""
    _check_dims(effects, rm)
    probs = np.einsum("iab,ba->i", effects, rm).real
    if probs.min() < tol.psd_tol:
        raise ValidationError(f"negative probability {probs.min()}")
    probs = np.maximum(probs, 0.0)
    total = float(probs.sum())
    if abs(total - 1.0) > max(tol.eq_tol, 1e-12 * len(probs)):
        raise ValidationError(f"probabilities sum to {total}, expected 1")
    return OutcomeDistribution(tuple(float(x) for x in outcomes), tuple(probs.tolist()))


def born_distribution(a, rho, tol: Tolerances = DEFAULT_TOL) -> OutcomeDistribution:
    """Outcome statistics Pr{a_i} = Tr[P_i rho] of an observable in a state."""
    dec = spectral_decompose(a, tol)
    return _born(dec.eigenvalues, dec.projectors, _as_state_matrix(rho, tol), tol)


class MeasuringProcess(_Immutable):
    """Probe state, coupling unitary, and meter observable.

    The system dimension is inferred from the unitary, which acts on
    system x probe. The meter acts on the probe alone. A process is
    immutable: what depends on it alone (the evolved meter, the eigh pair
    of the meter, the spectral decomposition of M(dt) and the process POVM)
    is computed on first use and kept, the last two once per Tolerances
    value.
    """

    def __init__(self, probe_state: DensityOperator, unitary, meter: HermitianObservable,
                 tol: Tolerances = DEFAULT_TOL):
        if not isinstance(probe_state, DensityOperator):
            probe_state = DensityOperator(probe_state, tol=tol)
        if not isinstance(meter, HermitianObservable):
            meter = HermitianObservable(meter, tol=tol)
        u = as_operator(unitary)
        if meter.dim != probe_state.dim:
            raise ValidationError("meter and probe state dimensions differ")
        if u.shape[0] % probe_state.dim != 0:
            raise ValidationError("unitary dimension is not a multiple of the probe dimension")
        if operator_distance(dagger(u) @ u, np.eye(u.shape[0])) > tol.eq_tol:
            raise ValidationError("coupling matrix is not unitary within eq_tol")
        self._init_fields(probe_state=probe_state, unitary=u, meter=meter,
                          probe_dim=probe_state.dim, system_dim=u.shape[0] // probe_state.dim,
                          tol=tol, _cache={})

    def _cached(self, key, make):
        """The cache entry under key, made (and frozen, for arrays) on first use."""
        if key not in self._cache:
            value = make()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def _evolve(self, big: np.ndarray) -> np.ndarray:
        """U+ X U for a composite operator X, Hermitian part."""
        return hermitian_part(dagger(self.unitary) @ big @ self.unitary)

    def _on_system(self, x, kind, tol: Tolerances):
        """x as a validated kind (HermitianObservable or DensityOperator) on the system."""
        x = x if isinstance(x, kind) else kind(x, tol)
        if x.dim != self.system_dim:
            raise ValidationError(
                f"dimension mismatch: {x.matrix.shape} vs system {self.system_dim}")
        return x

    def composite_state(self, rho) -> np.ndarray:
        """rho x rho0 on system x probe."""
        return tensor(self._on_system(rho, DensityOperator, self.tol), self.probe_state.matrix)

    def embedded_system(self, a) -> np.ndarray:
        """A(0) = A x 1, the system observable before the interaction."""
        return tensor(self._on_system(a, HermitianObservable, self.tol), np.eye(self.probe_dim))

    def evolved_meter(self) -> np.ndarray:
        """M(dt) = U+ (1 x M) U, the meter after the interaction.

        Computed once; every call returns the same read-only array.
        """
        return self._cached("evolved_meter", lambda: self._evolve(
            tensor(np.eye(self.system_dim), self.meter.matrix)))

    def evolved_system(self, b) -> np.ndarray:
        """B(dt) = U+ (B x 1) U, the system observable after the interaction."""
        return self._evolve(self.embedded_system(b))

    def _probe_average(self, op: np.ndarray) -> np.ndarray:
        """Tr_probe[op (1 x rho0)], Hermitian part, of a composite operator
        or of each operator of a stack.

        1 x rho0 is rebuilt per call rather than kept: it is n x n, and
        keeping it would add to the peak memory of every pass.
        """
        ref = tensor(np.eye(self.system_dim), self.probe_state.matrix)
        return hermitian_part(partial_trace(op @ ref, (self.system_dim, self.probe_dim), keep="first"))

    def _meter_eigh(self):
        """The meter's eigh pair (w, q), behind its measure and M(dt)'s."""
        return self._cached("meter_eigh", lambda: np.linalg.eigh(self.meter.matrix))

    def _meter_decomposition(self, tol: Tolerances) -> SpectralDecomposition:
        """Spectral decomposition of M(dt) under tol, in closed form: its
        eigenvectors U+ (e_s x q_j) carry the meter's w_j, so each cluster is
        valued exactly as in the meter's own decomposition."""
        def make():
            (w, q), d = self._meter_eigh(), self.system_dim
            # column (j, s) is U+ (e_s x q_j): d consecutive columns per w_j
            v = (dagger(self.unitary).reshape(-1, d, self.probe_dim) @ q).swapaxes(1, 2)
            return _spectral_measure(self.evolved_meter(), w, v.reshape(len(v), -1), tol, d)
        return self._cached(("meter_decomposition", tol), make)

    def _povm(self, tol: Tolerances):
        """Meter outcome values under tol with their POVM effects
        Tr_probe[Q_m (1 x rho0)] on the system, stacked."""
        dm = self._meter_decomposition(tol)
        return dm.eigenvalues, self._cached(("povm", tol), lambda: self._probe_average(dm.projectors))

    def __repr__(self):
        return f"MeasuringProcess(system_dim={self.system_dim}, probe_dim={self.probe_dim})"


def _kraus_stack(kraus_ops, dim: int) -> np.ndarray:
    """One outcome's Kraus family, a stack or a list of matrices, as an
    (r, dim, dim) complex array, also when empty."""
    ks = np.asarray(kraus_ops, dtype=complex)
    return ks.reshape(0, dim, dim) if ks.size == 0 else ks


def apply_kraus(kraus_ops, rho) -> np.ndarray:
    """Sum_j K_j rho K_j+ for one outcome's Kraus family."""
    rm = _as_matrix(rho)
    ks = _kraus_stack(kraus_ops, rm.shape[0])
    _check_dims(ks, rm)
    return (ks @ rm @ dagger(ks)).sum(axis=0)


def choi_matrix(kraus_ops, dim: int) -> np.ndarray:
    """Choi matrix C[(i,m),(j,n)] = Phi(|i><j|)[m,n] of one outcome's CP map."""
    v = _kraus_stack(kraus_ops, dim).swapaxes(1, 2).reshape(-1, dim * dim)  # v[j, (i,m)] = K_j[m,i]
    return v.T @ v.conj()


def kraus_from_choi(choi, dim: int, cutoff: float) -> list:
    """Kraus operators of a CP map from its Choi eigendecomposition.

    Eigenvalues at or below cutoff are discarded. Operators come out
    ordered by descending Choi eigenvalue.
    """
    w, v = np.linalg.eigh(hermitian_part(np.asarray(choi, dtype=complex)))
    w, v = w[::-1], v[:, ::-1]
    r = int(np.sum(w > cutoff))
    # column j of v is vec(K_j), with vec(K)[(i, m)] = K[m, i] as in choi_matrix
    return list(np.sqrt(w[:r])[:, None, None] * v[:, :r].T.reshape(r, dim, dim).swapaxes(1, 2))


def _sorted_family(outcomes, effects: np.ndarray, tol: Tolerances, count_error: str,
                   identity_error: str):
    """Distinct outcome values as floats sorted ascending, the permutation and
    the stacked effects, one per outcome, permuted alike and summing to 1."""
    outcomes = [float(x) for x in outcomes]
    if len(outcomes) != len(effects):
        raise ValidationError(count_error)
    if len(set(outcomes)) != len(outcomes):
        raise ValidationError("outcome values must be distinct")
    order = np.argsort(outcomes)
    effects = effects[order]
    if operator_distance(effects.sum(axis=0), np.eye(effects.shape[-1])) > max(tol.eq_tol, 1e-8):
        raise ValidationError(identity_error)
    effects.setflags(write=False)
    return tuple(outcomes[i] for i in order), order, effects


class CPInstrument(_Immutable):
    """Outcome-indexed family of CP maps summing to a channel, immutable.

    outcomes are distinct reals sorted ascending; kraus[m] is a read-only
    (r_m, d, d) stack, (0, d, d) for an outcome without Kraus operators.
    The effects sum_j K+K, computed once, sum to 1 within eq_tol.
    """

    def __init__(self, outcomes, kraus, tol: Tolerances = DEFAULT_TOL):
        if len(kraus) == 0:
            raise ValidationError("instrument needs at least one outcome")
        ops = [[as_operator(k) for k in fam] for fam in kraus]
        dims = {k.shape[0] for fam in ops for k in fam}
        if len(dims) > 1:
            raise ValidationError("all Kraus operators must share one dimension")
        if not dims:
            raise ValidationError("instrument has no Kraus operators at all")
        dim = dims.pop()
        stacks = [_kraus_stack(fam, dim) for fam in ops]
        effects = np.stack([hermitian_part((dagger(k) @ k).sum(axis=0)) for k in stacks])
        outcomes, order, effects = _sorted_family(
            outcomes, effects, tol, "need one Kraus list per outcome",
            "Kraus family is not trace-preserving: sum K+K != 1")
        for k in stacks:
            k.setflags(write=False)
        self._init_fields(outcomes=outcomes, kraus=tuple(stacks[i] for i in order), dim=dim,
                          tol=tol, _effects=effects)

    def _select(self, outcome_set) -> list:
        """Indices of outcomes matching a value or iterable of values, within
        the slack of the largest |outcome|."""
        if np.isscalar(outcome_set):
            outcome_set = [outcome_set]
        slack = _slack(self.tol, float(np.abs(self.outcomes).max()))
        idx = []
        for target in outcome_set:
            hits = [i for i, x in enumerate(self.outcomes) if abs(x - float(target)) <= slack]
            if not hits:
                raise ValidationError(f"outcome {target} not found in instrument")
            idx.extend(hits)
        return sorted(set(idx))

    def apply(self, rho, outcome_set=None) -> np.ndarray:
        """Unnormalized state change I(D)rho, D defaulting to all outcomes."""
        idx = range(len(self.outcomes)) if outcome_set is None else self._select(outcome_set)
        ops = [self.kraus[i] for i in idx]
        return apply_kraus(np.concatenate(ops) if ops else [], rho)

    def effect(self, i: int) -> np.ndarray:
        """POVM effect sum_j K+K of the i-th outcome, read-only."""
        return self._effects[i]

    def choi(self, i: int) -> np.ndarray:
        return choi_matrix(self.kraus[i], self.dim)

    def __repr__(self):
        return f"CPInstrument(outcomes={self.outcomes}, dim={self.dim})"


class POVM(_Immutable):
    """Positive effects, one per outcome, summing to the identity; immutable,
    with the effects as one read-only (m, d, d) stack in ascending outcome
    order."""

    def __init__(self, outcomes, effects, tol: Tolerances = DEFAULT_TOL):
        effs = [hermitian_part(as_operator(e)) for e in effects]
        if not effs:
            raise ValidationError("POVM needs at least one outcome")
        if len({e.shape for e in effs}) > 1:
            raise ValidationError("all effects must share one dimension")
        effs = np.stack(effs)
        if float(np.linalg.eigvalsh(effs).min()) < tol.psd_tol:
            raise ValidationError("effect is not positive semidefinite")
        outcomes, _, effs = _sorted_family(outcomes, effs, tol, "need one effect per outcome",
                                           "effects do not sum to the identity")
        self._init_fields(outcomes=outcomes, effects=effs, dim=effs.shape[-1], tol=tol)

    def probabilities(self, rho, tol: Tolerances = None) -> OutcomeDistribution:
        tol = tol or self.tol
        return _born(self.outcomes, self.effects, _as_state_matrix(rho, tol), tol)

    def __repr__(self):
        return f"POVM(outcomes={self.outcomes}, dim={self.dim})"


def instrument_from_process(mp: MeasuringProcess, tol: Tolerances = None) -> CPInstrument:
    """The CP instrument induced by reading the meter of a process.

    For each spectral value m of the meter with projector Q_m (from the
    process's one eigensolve of the meter, as M(dt)'s measure is),
    I(m)rho = Tr_probe[(1 x Q_m) U (rho x rho0) U+ (1 x Q_m)]. With the
    probe spectrum rho0 = sum_l lam_l |phi_l><phi_l| this map has the
    closed-form Kraus family sqrt(lam_l) (1 x <e_k|Q_m) U (1 x |phi_l>),
    e_k running over the probe basis; eigenvalues lam_l <= 0, which
    psd_tol admits, are dropped. The family is reduced to minimal rank by
    an SVD of the stacked columns vec(K): the Choi matrix of the outcome
    is V V+, so its eigenvectors are the left singular vectors and its
    eigenvalues the squared singular values s^2. Operators with
    s^2 <= eq_tol are discarded, and the rest come out ordered by
    descending Choi eigenvalue.
    """
    tol = tol or mp.tol
    mdec = _spectral_measure(mp.meter.matrix, *mp._meter_eigh(), tol)
    d, dp = mp.system_dim, mp.probe_dim
    lam, phi = np.linalg.eigh(mp.probe_state.matrix)
    keep = lam > 0
    # t[a, b, c, l] = sum_e U[(a, b), (c, e)] sqrt(lam_l) phi_l[e]
    t = mp.unitary.reshape(d, dp, d, dp) @ (phi[:, keep] * np.sqrt(lam[keep]))
    families = []
    for q in mdec.projectors:
        # column (k, l) is vec(K_kl), with vec(K)[(c, a)] = K[a, c] as in choi_matrix
        v = np.einsum("kb,abcl->cakl", q, t).reshape(d * d, -1)
        w, s, _ = np.linalg.svd(v, full_matrices=False)
        rank = int(np.sum(s * s > tol.eq_tol))
        # K_j[a, c] = s_j w[(c, a), j]
        families.append(s[:rank, None, None] * w[:, :rank].T.reshape(rank, d, d).swapaxes(1, 2))
    return CPInstrument(mdec.eigenvalues, families, tol=tol)


def povm_of(instrument: CPInstrument) -> POVM:
    """The outcome statistics of an instrument as a POVM."""
    return POVM(instrument.outcomes, instrument._effects, tol=instrument.tol)


def outcome_probabilities(instrument: CPInstrument, rho, tol: Tolerances = None) -> OutcomeDistribution:
    """Pr{m} = Tr[I(m) rho] = Tr[E_m rho] for each outcome."""
    tol = tol or instrument.tol
    return _born(instrument.outcomes, instrument._effects, _as_state_matrix(rho, tol), tol)


def post_state(instrument: CPInstrument, outcome_set, rho, tol: Tolerances = None) -> DensityOperator:
    """Normalized state after observing an outcome in outcome_set.

    Raises ZeroProbabilityError if the conditioning probability is at or
    below eq_tol (zero-probability condition).
    """
    tol = tol or instrument.tol
    rm = _as_state_matrix(rho, tol)
    unnorm = instrument.apply(rm, outcome_set)
    p = float(np.trace(unnorm).real)
    if p <= tol.eq_tol:
        raise ZeroProbabilityError(
            f"zero-probability condition: outcome set has probability {p}")
    return DensityOperator(hermitian_part(unnorm) / p, tol=tol)


def luders_instrument(a, tol: Tolerances = DEFAULT_TOL) -> CPInstrument:
    """The projective instrument rho -> P_i rho P_i of an observable."""
    dec = spectral_decompose(a, tol)
    return CPInstrument(dec.eigenvalues, dec.projectors[:, None], tol=tol)


def dilate(instrument: CPInstrument, tol: Tolerances = None) -> MeasuringProcess:
    """An explicit measuring process realizing a CP instrument.

    The probe dimension is the total Kraus count r, with one block of
    size r_m per outcome. The coupling maps psi x e0 to
    sum_{m,j} (K_{m,j} psi) x |m,j>: its columns at the probe index
    e0 = 0 are the stacked Kraus columns, an isometry V because
    sum K+K = 1. The remaining n - d columns, in index order, are the
    orthonormal complement Q[:, d:] from the complete QR factorization
    V = QR, so the construction is deterministic. The probe starts in the
    pure state |e0> (the first block vector) and the meter takes the
    value outcomes[m] on block m. Reading the meter of the resulting
    process reproduces the instrument (per-outcome Choi agreement).
    """
    tol = tol or instrument.tol
    d = instrument.dim
    counts = [len(ops) for ops in instrument.kraus]
    probe_dim = sum(counts)
    n = d * probe_dim

    # iso[(s, b), i] = K_b[s, i], the row of component (s, b) being s*probe_dim + b
    iso = np.concatenate(instrument.kraus).swapaxes(0, 1).reshape(n, d)
    filled = np.zeros(n, dtype=bool)
    filled[::probe_dim] = True
    u = np.empty((n, n), dtype=complex)
    u[:, filled] = iso
    u[:, ~filled] = np.linalg.qr(iso, mode="complete")[0][:, d:]

    meter = HermitianObservable(np.diag(np.repeat(instrument.outcomes, counts)), tol=tol)
    e0 = np.zeros(probe_dim)
    e0[0] = 1.0
    probe = DensityOperator.pure(e0, tol=tol)
    return MeasuringProcess(probe, u, meter, tol=tol)


def instrument_choi_distance(a: CPInstrument, b: CPInstrument, tol: Tolerances = None) -> float:
    """Max-abs distance between per-outcome Choi matrices of two instruments.

    Outcomes are matched by value, clustered as spectral_decompose clusters
    eigenvalues; an outcome present on one side only is compared against
    the zero map.
    """
    tol = tol or a.tol
    if a.dim != b.dim:
        raise ValidationError("instruments act on different dimensions")
    values = sorted(set(a.outcomes) | set(b.outcomes))
    label = dict(zip(values, _cluster_labels(values, tol).tolist()))
    sums = np.zeros((2, label[values[-1]] + 1, a.dim ** 2, a.dim ** 2), dtype=complex)
    for side, inst in enumerate((a, b)):
        for i, x in enumerate(inst.outcomes):
            sums[side, label[x]] += inst.choi(i)
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


def check_repeatability(instrument: CPInstrument, a, rho, epsilon: float,
                        tol: Tolerances = None) -> RepeatabilityReport:
    """Check epsilon-repeatability outcome by outcome.

    Outcomes with probability at or below eq_tol are skipped. The residual
    uses the raw outcome label even when it is not an eigenvalue of A.
    Residuals cannot be resolved below sqrt(machine eps) times the
    operator scale dim * max|A_ij|, so the repeatable flag and the AR
    comparison use that noise floor (or the slack of that scale, whichever
    is larger) as slack.
    """
    tol = tol or instrument.tol
    am = _as_observable_matrix(a, tol)
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho, tol)
    _check_dims(am, rho.matrix)
    scale = float(np.abs(am).max()) * am.shape[0]
    floor = max(_slack(tol, scale), float(np.sqrt(np.finfo(float).eps)) * scale)
    outs, residuals, sds = [], [], []
    probs = outcome_probabilities(instrument, rho, tol)
    for x, p in zip(probs.outcomes, probs.probabilities):
        if p <= tol.eq_tol:
            continue
        rho_a = post_state(instrument, x, rho, tol)
        shifted = am - x * np.eye(instrument.dim)
        r2 = np.trace(shifted @ rho_a.matrix @ shifted).real
        outs.append(float(x))
        residuals.append(float(np.sqrt(max(r2, 0.0))))
        sds.append(_spectral_std_dev(am, rho_a.matrix, np.linalg.eigh(rho_a.matrix)))
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
