"""Shared fixtures-by-hand for the test suite: standard matrices and
constructed measuring processes with known exact behavior."""

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


def cnot_process() -> qm.MeasuringProcess:
    """System-controlled CNOT onto a |0> probe read out with sigma_z."""
    return qm.MeasuringProcess(qm.DensityOperator(P0), CNOT, qm.HermitianObservable(SZ))


def trivial_process(system_dim=2, probe_dim=2) -> qm.MeasuringProcess:
    """No interaction, identity meter: the single-outcome identity instrument."""
    return qm.MeasuringProcess(
        qm.DensityOperator.maximally_mixed(probe_dim),
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
                choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = qm.partial_trace(big, (d, dp), keep="first")
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
