"""Shared fixtures-by-hand for the test suite: standard matrices and
constructed measuring processes with known exact behavior."""

import tracemalloc

import numpy as np

import qmeasure as qm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_YPLUS = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)

CNOT = np.kron(P0, EYE2) + np.kron(P1, SX)


def traced(f) -> tuple:
    """(f(), peak, current): the bytes tracemalloc saw allocated at the peak
    of the call and still held after it, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, current - base


def cnot_process() -> qm.MeasuringProcess:
    """System-controlled CNOT onto a |0> probe read out with sigma_z."""
    return qm.MeasuringProcess(qm.DensityOperator(P0), CNOT, qm.HermitianObservable(SZ))


def trivial_process(system_dim=2, probe_dim=2) -> qm.MeasuringProcess:
    """No interaction, identity meter: the single-outcome identity instrument."""
    return qm.MeasuringProcess(
        qm.DensityOperator(np.eye(probe_dim) / probe_dim),
        np.eye(system_dim * probe_dim, dtype=complex),
        qm.HermitianObservable(np.eye(probe_dim)),
    )


def identity_coupling_process(meter, probe_state) -> qm.MeasuringProcess:
    """U = 1 with a chosen probe-side meter; disturbs nothing."""
    probe = probe_state if isinstance(probe_state, qm.DensityOperator) else qm.DensityOperator(probe_state)
    dim = 2 * probe.dim
    return qm.MeasuringProcess(probe, np.eye(dim, dtype=complex), qm.HermitianObservable(meter))


def independent_meter_process(a, rho) -> qm.MeasuringProcess:
    """Probe prepared in a copy of rho, meter a copy of A, no coupling.

    The meter outcome is then distributed exactly like A but statistically
    independent of it: probability reproducible, never precise (unless
    sigma(A, rho) = 0).
    """
    rho = rho if isinstance(rho, qm.DensityOperator) else qm.DensityOperator(rho)
    am = np.asarray(a, dtype=complex) if not isinstance(a, qm.HermitianObservable) else a.matrix
    dim = rho.dim * rho.dim
    return qm.MeasuringProcess(rho, np.eye(dim, dtype=complex), qm.HermitianObservable(am))


def dilated_luders(a) -> qm.MeasuringProcess:
    """Realization of the projective instrument of an observable."""
    return qm.dilate(qm.luders_instrument(a))


def shifted_meter(mp: qm.MeasuringProcess, c: float) -> qm.MeasuringProcess:
    """Same process with the meter displaced by a constant."""
    meter = qm.HermitianObservable(mp.meter.matrix + c * np.eye(mp.probe_dim))
    return qm.MeasuringProcess(mp.probe_state, mp.unitary, meter)


def noise_operator(mp: qm.MeasuringProcess, a) -> np.ndarray:
    """N(A) = M(dt) - A(0) on the composite space, the definition that the
    library's mean and moment operators are checked against."""
    return mp.evolved_meter() - mp.embedded_system(a)


def disturbance_operator(mp: qm.MeasuringProcess, b) -> np.ndarray:
    """D(B) = B(dt) - B(0) on the composite space."""
    return mp.evolved_system(b) - mp.embedded_system(b)


def reference_instrument_from_process(mp: qm.MeasuringProcess) -> qm.CPInstrument:
    """The instrument of a process by channel evaluation, the reference for
    the closed form of qm.instrument_from_process.

    Each outcome's Choi matrix C[(i,m),(j,n)] = Phi(E_ij)[m,n] is filled by
    evaluating Phi(X) = Tr_probe[(1 x Q) U (X x rho0) U+ (1 x Q)] on the d^2
    matrix units, and its Kraus family comes from qm.kraus_from_choi with
    cutoff eq_tol.
    """
    tol = mp.tol
    d, dp = mp.system_dim, mp.probe_dim
    u = mp.unitary
    rho0 = mp.probe_state.matrix
    mdec = qm.spectral_decompose(mp.meter, tol)
    outcomes = []
    families = []
    for m_val, q in zip(mdec.eigenvalues, mdec.projectors):
        sandwich = np.kron(np.eye(d), q)
        choi = np.zeros((d * d, d * d), dtype=complex)
        unit = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit[i, j] = 1.0
                big = sandwich @ u @ np.kron(unit, rho0) @ qm.dagger(u) @ sandwich
                unit[i, j] = 0.0
                choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = qm.partial_trace(big, (d, dp))
        outcomes.append(float(m_val))
        families.append(qm.kraus_from_choi(choi, d, cutoff=tol.eq_tol))
    return qm.CPInstrument(outcomes, families, tol=tol)


def reference_joint_weights(x_projectors, y_projectors, sigma) -> np.ndarray:
    """W[i, j] = Tr[P_i Q_j sigma] by a double loop over projector pairs, the
    reference for the weights of qm.joint_distribution and
    qm.weak_joint_distribution."""
    w = np.zeros((len(x_projectors), len(y_projectors)), dtype=complex)
    for i, p in enumerate(x_projectors):
        for j, q in enumerate(y_projectors):
            w[i, j] = complex(np.trace(p @ q @ sigma))
    return w


def reference_cases():
    """(name, process, A, rho): random instances, a clustered meter with a
    clustered A (eigenvalues closer than eq_tol), and a pure probe."""
    cases = []
    for trial in range(6):
        rng = qm.rng_from(509, trial)
        d, dp = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        cases.append((f"random-{trial}", qm.random_measuring_process(d, dp, rng, pure_probe=False),
                      qm.random_hermitian(d, rng), qm.random_density_operator(d, rng)))
    rng = qm.rng_from(510)
    v, w = qm.haar_unitary(3, rng), qm.haar_unitary(3, rng)
    clustered = v @ np.diag([0.0, 1e-12, 1.0]) @ qm.dagger(v)
    mixed = qm.random_density_operator(3, rng)
    meter = qm.HermitianObservable(w @ np.diag([-1.0, -1.0 + 1e-12, 2.0]) @ qm.dagger(w))
    cases.append(("clustered-meter", qm.MeasuringProcess(mixed, qm.haar_unitary(9, rng), meter),
                  qm.HermitianObservable(clustered), qm.random_density_operator(3, rng)))
    pure = qm.random_pure_state(3, rng)
    cases.append(("pure-probe", qm.MeasuringProcess(pure, qm.haar_unitary(9, rng), meter),
                  qm.random_hermitian(3, rng), qm.random_pure_state(3, rng)))
    return cases


def reference_outcome_probabilities(instrument: qm.CPInstrument, rho) -> np.ndarray:
    """Pr{m} = sum_j Tr[K_j rho K_j+] by a loop over each outcome's Kraus
    operators, the reference for qm.outcome_probabilities."""
    rm = np.asarray(rho, dtype=complex)
    return np.array([sum(np.trace(k @ rm @ k.conj().T).real for k in ops)
                     for ops in instrument.kraus])


def reference_cyclic_basis(projectors, rho, eq_tol: float = 1e-9) -> np.ndarray:
    """Spanning columns P_i phi_k of the cyclic subspace by a double loop,
    k over the eigenvectors of rho with eigenvalue above eq_tol and i over
    the projectors, the reference for qm.cyclic_subspace."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    cols = [p @ v[:, k] for k in range(len(w)) if w[k] > eq_tol for p in projectors]
    return np.stack(cols, axis=1)


def reference_partial_trace(stack, dims) -> np.ndarray:
    """Partial trace over the second factor of each operator of a stack by
    block sums: Tr_2 adds the sub-blocks z[j::d2, j::d2]. The reference for
    qm.partial_trace on a stack."""
    d2 = dims[1]
    return np.stack([sum(z[j::d2, j::d2] for j in range(d2)) for z in stack])


def three_state_error_squared(mp: qm.MeasuringProcess, a, rho) -> float:
    """epsilon(A, rho)^2 from outcome statistics alone, by the three-state method
    (Ozawa, Ann. Phys. 311, 350 (2004); Erhart et al., Nature Phys. 8, 185 (2012)):
    <F(M^2)>_rho + <A^2>_rho - (<F(M)>_{(1+A)rho(1+A)} - <F(M)>_{A rho A} - <F(M)>_rho),
    with unnormalized states, <F(M^k)>_s = sum_m x_m^k Tr[E_m s] over the meter's
    eigenpairs (x_m, q_m) with effects E_m = Tr_probe[(1 x rho0) U+ (1 x q_m q_m+) U],
    and <A^2>_rho = sum_i a_i^2 <v_i|rho|v_i> over A's eigenpairs. The reference
    for qm.rms_error."""
    am, rm = np.asarray(a, dtype=complex), np.asarray(rho, dtype=complex)
    d, u = mp.system_dim, mp.unitary
    x, q = np.linalg.eigh(mp.meter.matrix)
    lift = np.kron(np.eye(d), mp.probe_state.matrix)
    effects = reference_partial_trace(
        [qm.dagger(u) @ np.kron(np.eye(d), np.outer(c, c.conj())) @ u @ lift for c in q.T],
        (d, mp.probe_dim))

    def mean_meter(state, power=1):
        return float(np.einsum("m,mab,ba->", x ** power, effects, state).real)

    ai, v = np.linalg.eigh(am)
    a_squared = float(np.einsum("i,ki,kl,li->", ai ** 2, v.conj(), rm, v).real)
    one_a = np.eye(d) + am
    return (mean_meter(rm, 2) + a_squared
            - (mean_meter(one_a @ rm @ one_a) - mean_meter(am @ rm @ am) - mean_meter(rm)))


def three_state_disturbance_squared(mp: qm.MeasuringProcess, b, rho) -> float:
    """eta(B, rho)^2 from outcome statistics alone, by the same three-state method:
    <B^2>_T(rho) + <B^2>_rho - (<B>_T((1+B)rho(1+B)) - <B>_T(B rho B) - <B>_T(rho)),
    with unnormalized states, the channel T(s) = Tr_probe[U (s x rho0) U+] and the
    Born means <B^k>_s = sum_i b_i^k <v_i|s|v_i> over B's eigenpairs (b_i, v_i):
    <B(dt)^k>_s is the Born mean of B^k after the channel. The reference for
    qm.rms_disturbance."""
    bm, rm = np.asarray(b, dtype=complex), np.asarray(rho, dtype=complex)
    d, u = mp.system_dim, mp.unitary
    bi, v = np.linalg.eigh(bm)

    def born_mean(state, power=1):
        return float(np.einsum("i,ki,kl,li->", bi ** power, v.conj(), state, v).real)

    def channel(state):
        return reference_partial_trace([u @ np.kron(state, mp.probe_state.matrix) @ qm.dagger(u)],
                                       (d, mp.probe_dim))[0]

    one_b = np.eye(d) + bm
    return (born_mean(channel(rm), 2) + born_mean(rm, 2)
            - (born_mean(channel(one_b @ rm @ one_b)) - born_mean(channel(bm @ rm @ bm))
               - born_mean(channel(rm))))


def reference_after_factors(mp: qm.MeasuringProcess, x: str, blocks) -> list:
    """The thin factors of the after-projectors from the whole conjugate of U:
    U+ with its columns split as (s, k), times each meter block q on k for
    x = "a" (U+ (e_s x q_j)) and each block w of B on s for x = "b"
    (U+ (w_j x e_k)), flattened to (n, columns). Their projectors V V+ are
    the reference for G+ G of the row factors qm.jpd._commutes_after reads
    from U's rows."""
    ud = qm.dagger(mp.unitary).reshape(-1, mp.system_dim, mp.probe_dim)
    return [(ud @ v if x == "a" else ud.swapaxes(1, 2) @ v).reshape(len(ud), -1) for v in blocks]


def sweep_draw(seed: int, trial: int, dims=(2, 4)):
    """(process, A, B, rho) of trial `trial` of qm.run_sweep(dims, seed=seed)
    under the haar interaction, drawn in the sweep's order."""
    rng = qm.rng_from(seed, trial)
    ds, dp = int(rng.integers(dims[0], dims[1] + 1)), int(rng.integers(dims[0], dims[1] + 1))
    a, b = qm.random_hermitian(ds, rng), qm.random_hermitian(ds, rng)
    rho = qm.random_pure_state(ds, rng) if rng.integers(0, 2) else qm.random_density_operator(ds, rng)
    return qm.random_measuring_process(ds, dp, rng), a, b, rho


def precise_channel_instrument(d: int, rng) -> tuple:
    """(instrument, A): a Lüders measurement of a random Hermitian A followed
    by a random-unitary channel, K_{m,j} = sqrt(p_j) V_j P_m with d Haar
    unitaries V_j and random weights p_j. It is precise for A in every state,
    and its Kraus rank d^2 gives its dilation n = d^3."""
    a = qm.random_hermitian(d, rng)
    dec = qm.spectral_decompose(a)
    weights = rng.dirichlet(np.ones(d))
    unitaries = [qm.haar_unitary(d, rng) for _ in range(d)]
    return qm.CPInstrument(dec.eigenvalues, [[np.sqrt(p) * v @ pm for p, v in zip(weights, unitaries)]
                                             for pm in dec.projectors]), a


def composite_cases():
    """(name, process, A, B, rho) for checking the instrument-side figures
    against their composite definitions: Haar couplings up to dimension
    12 with mixed and pure probes, a degenerate meter, identity couplings,
    and dilated instruments (Lueders and random)."""
    cases = []
    for i, (ds, dp, pure) in enumerate(((2, 3, False), (3, 2, True), (4, 4, False),
                                        (12, 2, True), (2, 12, False), (5, 4, True))):
        rng = qm.rng_from(520, i)
        cases.append((f"haar-{ds}x{dp}-{'pure' if pure else 'mixed'}",
                      qm.random_measuring_process(ds, dp, rng, pure_probe=pure),
                      qm.random_hermitian(ds, rng), qm.random_hermitian(ds, rng),
                      qm.random_density_operator(ds, rng)))
    rng = qm.rng_from(521)
    w = qm.haar_unitary(4, rng)
    meter = qm.HermitianObservable(w @ np.diag([1.0, 1.0, -1.0, 2.0]) @ qm.dagger(w))
    cases.append(("degenerate-meter", qm.MeasuringProcess(qm.random_density_operator(4, rng),
                                                         qm.haar_unitary(12, rng), meter),
                  qm.random_hermitian(3, rng), qm.random_hermitian(3, rng),
                  qm.random_pure_state(3, rng)))
    cases.append(("identity", qm.random_measuring_process(3, 3, rng, interaction="identity"),
                  qm.random_hermitian(3, rng), qm.random_hermitian(3, rng),
                  qm.random_density_operator(3, rng)))
    a = qm.random_hermitian(4, rng)
    cases.append(("dilated-luders", qm.dilate(qm.luders_instrument(a)), a,
                  qm.random_hermitian(4, rng), qm.random_density_operator(4, rng)))
    cases.append(("dilated-random", qm.dilate(qm.random_cp_instrument(3, 3, rng)),
                  qm.random_hermitian(3, rng), qm.random_hermitian(3, rng),
                  qm.random_density_operator(3, rng)))
    return cases


def reference_strong_face(x_projectors, x_values, y_projectors, y_values, sigma,
                          tol: qm.Tolerances = qm.DEFAULT_TOL) -> bool:
    """The strong face on composite projector stacks by a double loop over
    pairs: [P_i, Q_j] sigma = 0 within eq_tol for every pair, and no weight
    Tr[P_i Q_j sigma] of an atom off the diagonal (beyond the slack of the
    largest |value|) above eq_tol. The reference for qm.is_precise, the
    strong face, and qm.is_nondisturbing."""
    for p in x_projectors:
        for q in y_projectors:
            if float(np.abs((p @ q - q @ p) @ sigma).max()) > tol.eq_tol:
                return False
    w = reference_joint_weights(x_projectors, y_projectors, sigma)
    x, y = np.asarray(x_values), np.asarray(y_values)
    scale = max(np.abs(x).max(), np.abs(y).max())
    off = np.abs(x[:, None] - y[None, :]) > max(tol.eq_tol, np.finfo(float).eps) * scale
    return not bool((off & (np.abs(w.real) > tol.eq_tol)).any())


def reference_check_repeatability(instrument: qm.CPInstrument, a, rho,
                                  epsilon: float) -> qm.RepeatabilityReport:
    """Repeatability through post-measurement states, the reference for the
    closed form of qm.check_repeatability: each outcome kept (probability
    above 16 d^2 eps, or eq_tol if larger) is conditioned on through apply,
    rho_a = I(a)rho / Pr{a} is built as a DensityOperator, and the spreads
    of A about the outcome label and about its mean are summed over the
    support of rho_a. The flags allow a noise floor of sqrt(eps) times
    d * max|A_ij|, or the slack of that scale if larger. Its eigh keeps
    weights of order eps / Pr{a} in rho_a's support, so at a small Pr{a}
    the Lüders residual can read far above rounding."""
    tol = instrument.tol
    am = np.asarray(a, dtype=complex)
    rm = np.asarray(rho, dtype=complex)
    d, eps = len(am), np.finfo(float).eps
    scale = float(np.abs(am).max()) * d
    floor = max(tol.eq_tol, 16 * eps, np.sqrt(eps)) * scale
    probs = qm.outcome_probabilities(instrument, rm).probabilities

    def spread(state, centre):
        w, v = state.support
        dev = am - centre * np.eye(d)
        return float(np.sqrt((w * (np.abs(dev @ v) ** 2).sum(axis=0)).sum()))

    outs, residuals, sds = [], [], []
    for x, p in zip(instrument.outcomes, probs):
        if p <= max(tol.eq_tol, 16 * d * d * eps):
            continue
        rho_a = qm.DensityOperator(qm.hermitian_part(instrument.apply(rm, x)) / p, tol=tol)
        outs.append(float(x))
        residuals.append(spread(rho_a, x))
        sds.append(spread(rho_a, (am @ rho_a.matrix).trace().real))
    worst = max(residuals, default=0.0)
    return qm.RepeatabilityReport(
        repeatable=bool(worst <= epsilon + floor), worst_residual=worst, outcomes=tuple(outs),
        residuals=tuple(residuals), post_std_devs=tuple(sds),
        ar_bound_ok=all(s <= r + floor for s, r in zip(sds, residuals)))


def reference_instrument_choi_distance(a: qm.CPInstrument, b: qm.CPInstrument) -> float:
    """Max-abs distance of the per-cluster Choi sums by a loop over each
    side's outcomes, each adding its choi(i), the reference for
    qm.instrument_choi_distance; outcomes are matched as the library
    matches them, by operators._cluster_labels."""
    labels = qm.operators._cluster_labels(a.outcomes + b.outcomes, a.tol)
    sums = np.zeros((2, labels.max() + 1, a.dim ** 2, a.dim ** 2), dtype=complex)
    for side, (inst, lab) in enumerate(zip((a, b), np.split(labels, [len(a.outcomes)]))):
        for i, label in enumerate(lab):
            sums[side, label] += inst.choi(i)
    return float(np.abs(sums[0] - sums[1]).max())
