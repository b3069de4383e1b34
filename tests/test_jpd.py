import functools

import numpy as np
import pytest

import qmeasure as qm
from helpers import (
    EYE2,
    KET0,
    KET_PLUS,
    SX,
    SZ,
    cnot_process,
    composite_cases,
    dilated_luders,
    identity_coupling_process,
    independent_meter_process,
    precise_channel_instrument,
    reference_after_factors,
    reference_cases,
    reference_joint_weights,
    reference_partial_trace,
    reference_strong_face,
    traced,
)

SQRT2 = float(np.sqrt(2.0))

BELL = qm.DensityOperator.pure([1.0, 0.0, 0.0, 1.0])
BELL_ANTI = qm.DensityOperator.pure([0.0, 1.0, 1.0, 0.0])


def uncoupled_z_meter() -> qm.MeasuringProcess:
    return identity_coupling_process(SZ, qm.DensityOperator.pure(KET0))


class TestCommuteInState:
    def test_pauli_pair_fails(self):
        assert not qm.commute_in_state(SZ, SX, qm.DensityOperator.pure(KET0))

    def test_observable_with_itself(self):
        assert qm.commute_in_state(SZ, SZ, qm.DensityOperator.pure(KET_PLUS))

    def test_commutation_on_support_only(self):
        # [X, Y] != 0 as operators, yet every projector commutator kills rho
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        y = np.zeros((3, 3), dtype=complex)
        y[0, 0] = 1.0
        y[1, 2] = y[2, 1] = 1.0
        rho = qm.DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert qm.operator_distance(qm.commutator(x, y), np.zeros((3, 3))) > 0.5
        assert qm.commute_in_state(x, y, rho)

    @pytest.mark.parametrize("w, commute", [(1e-6, False), (1e-9, True), (1e-12, True),
                                            (1e-15, True)])
    def test_weight_off_the_commuting_support(self, w, commute):
        # weight w on e1 breaks commutation by about w: the test reads the state
        # factor v * w, with rho's own scale, so w at or below the slack commutes
        x = np.diag([1.0, 2.0, 3.0])
        y = np.zeros((3, 3))
        y[0, 0] = 1.0
        y[1, 2] = y[2, 1] = 1.0
        assert qm.commute_in_state(x, y, np.diag([1.0 - w, w, 0.0])) == commute


class TestJointDistribution:
    def test_bell_correlations_frozen(self):
        za = qm.tensor(SZ, EYE2)
        zb = qm.tensor(EYE2, SZ)
        jd = qm.joint_distribution(za, zb, BELL)
        assert np.allclose(jd.x_atoms, [-1.0, 1.0])
        assert np.allclose(jd.weights, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert qm.gauss_rms(jd) == pytest.approx(0.0, abs=1e-9)

    def test_anticorrelated_bell(self):
        za = qm.tensor(SZ, EYE2)
        zb = qm.tensor(EYE2, SZ)
        jd = qm.joint_distribution(za, zb, BELL_ANTI)
        assert np.allclose(jd.weights, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        assert qm.gauss_rms(jd) == pytest.approx(2.0)

    def test_non_commuting_pair_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.joint_distribution(SZ, SX, qm.DensityOperator.pure(KET0))

    def test_marginals_match_born(self):
        rng = qm.rng_from(401)
        for _ in range(50):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 4))
            a = qm.random_hermitian(da, rng).matrix
            b = qm.random_hermitian(db, rng).matrix
            rho = qm.random_density_operator(da * db, rng)
            jd = qm.joint_distribution(qm.tensor(a, np.eye(db)), qm.tensor(np.eye(da), b), rho)
            bx = qm.born_distribution(qm.tensor(a, np.eye(db)), rho)
            assert np.allclose(jd.weights.sum(axis=1), bx.probabilities, atol=1e-9)

    def test_moment_identity_up_to_degree_two(self):
        # Tr[X^a Y^b rho] = sum_ij w_ij x_i^a y_j^b for commuting pairs
        rng = qm.rng_from(402)
        for _ in range(30):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(2, 4))
            x = qm.tensor(qm.random_hermitian(da, rng).matrix, np.eye(db))
            y = qm.tensor(np.eye(da), qm.random_hermitian(db, rng).matrix)
            rho = qm.random_density_operator(da * db, rng)
            jd = qm.joint_distribution(x, y, rho)
            for pa in range(3):
                for pb in range(3):
                    op = np.linalg.matrix_power(x, pa) @ np.linalg.matrix_power(y, pb)
                    lhs = qm.expectation(op, rho).real
                    rhs = float((jd.weights
                                 * np.outer(jd.x_atoms ** pa, jd.y_atoms ** pb)).sum())
                    assert abs(lhs - rhs) < 1e-8


class TestWeakJointDistribution:
    def test_gauss_rms_rejects_complex_weights(self):
        jd = qm.weak_joint_distribution(dilated_luders(SX), SZ, qm.DensityOperator.pure(KET_PLUS))
        with pytest.raises(qm.ValidationError):
            qm.gauss_rms(jd)

    def test_cnot_on_plus_is_diagonal(self):
        wjd = qm.weak_joint_distribution(cnot_process(), SZ, qm.DensityOperator.pure(KET_PLUS))
        assert np.allclose(wjd.weights, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_uncoupled_meter_reads_constant(self):
        # probe meter never moves: every x pairs with the meter's +1
        wjd = qm.weak_joint_distribution(uncoupled_z_meter(), SZ, qm.DensityOperator.pure(KET_PLUS))
        assert np.allclose(wjd.weights, [[0.0, 0.5], [0.0, 0.5]], atol=1e-12)

    def test_mixed_probe_splits_evenly(self):
        mp = identity_coupling_process(SZ, qm.DensityOperator(np.eye(2) / 2))
        wjd = qm.weak_joint_distribution(mp, SZ, qm.DensityOperator.pure(KET_PLUS))
        assert np.allclose(wjd.weights, [[0.25, 0.25], [0.25, 0.25]], atol=1e-12)

    def test_weights_can_be_genuinely_complex(self):
        found = False
        for trial in range(20):
            rng = qm.rng_from(403, trial)
            mp = qm.random_measuring_process(2, 2, rng)
            a = qm.random_hermitian(2, rng)
            rho = qm.random_density_operator(2, rng)
            wjd = qm.weak_joint_distribution(mp, a, rho)
            if float(np.abs(wjd.weights.imag).max()) > 1e-3:
                found = True
                break
        assert found

    def test_total_and_marginals_validated_random(self):
        for trial in range(50):
            rng = qm.rng_from(404, trial)
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            wjd = qm.weak_joint_distribution(mp, a, rho)
            assert complex(wjd.weights.sum()) == pytest.approx(1.0, abs=1e-9)
            ba = qm.born_distribution(a, rho)
            assert np.allclose(wjd.weights.sum(axis=1).real, ba.probabilities, atol=1e-9)


class TestPrecision:
    def test_projective_measurement_is_precise(self):
        mp = dilated_luders(SZ)
        rho = qm.DensityOperator.pure(KET_PLUS)
        assert qm.is_precise(mp, SZ, rho)
        assert qm.theorem2_check(mp, SZ, rho).weak_precise

    def test_uncoupled_meter_is_not(self):
        mp = uncoupled_z_meter()
        rho = qm.DensityOperator.pure(KET0)
        assert not qm.is_precise(mp, SX, rho)
        assert not qm.theorem2_check(mp, SX, rho).weak_precise

    def test_cnot_does_not_disturb_control(self):
        mp = cnot_process()
        assert qm.is_nondisturbing(mp, SZ, qm.DensityOperator.pure(KET_PLUS))

    def test_cnot_disturbs_conjugate(self):
        mp = cnot_process()
        assert not qm.is_nondisturbing(mp, SX, qm.DensityOperator.pure(KET_PLUS))


class TestProbabilityReproducible:
    def test_independent_meter_reproduces(self):
        mp = independent_meter_process(SZ, qm.DensityOperator.pure(KET_PLUS))
        assert qm.probability_reproducible(mp, SZ, qm.DensityOperator.pure(KET_PLUS))

    def test_constant_meter_does_not(self):
        mp = uncoupled_z_meter()
        assert not qm.probability_reproducible(mp, SX, qm.DensityOperator.pure(KET0))

    def test_projective_measurement_reproduces(self):
        mp = dilated_luders(SX)
        for vec in (KET0, KET_PLUS):
            assert qm.probability_reproducible(mp, SX, qm.DensityOperator.pure(vec))


class TestTheorem2:
    def test_projective_positive(self):
        report = qm.theorem2_check(dilated_luders(SZ), SZ, qm.DensityOperator.pure(KET_PLUS))
        assert report.flags() == (True, True, True, True)
        assert report.consistent

    def test_cnot_positive_all_states(self):
        mp = cnot_process()
        rng = qm.rng_from(405)
        for _ in range(10):
            rho = qm.random_density_operator(2, rng)
            report = qm.theorem2_check(mp, SZ, rho)
            assert report.flags() == (True, True, True, True)

    def test_independent_meter_negative(self):
        rho = qm.DensityOperator.pure(KET_PLUS)
        report = qm.theorem2_check(independent_meter_process(SZ, rho), SZ, rho)
        assert report.flags() == (False, False, False, False)
        assert report.consistent

    def test_independent_meter_on_eigenstate_positive(self):
        rho = qm.DensityOperator.pure(KET0)
        report = qm.theorem2_check(independent_meter_process(SZ, rho), SZ, rho)
        assert report.flags() == (True, True, True, True)

    def test_constant_meter_negative(self):
        report = qm.theorem2_check(uncoupled_z_meter(), SX, qm.DensityOperator.pure(KET0))
        assert report.flags() == (False, False, False, False)

    def test_flags_agree_random(self):
        for trial in range(120):
            rng = qm.rng_from(406, trial)
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            report = qm.theorem2_check(mp, a, rho)
            assert report.consistent, f"trial {trial}: {report}"

    def test_perturbed_precise_processes_never_raise(self):
        # dilated Lüders processes with the coupling perturbed by exp(-itG),
        # t = 1e-11..1e-8: weak weights slightly below zero are read, not
        # rejected, and the strong face never exceeds the weak one
        rng = qm.rng_from(7)
        for _ in range(400):
            d = int(rng.integers(3, 7))
            a = qm.random_hermitian(d, rng)
            qm.random_hermitian(d, rng)
            mp = qm.dilate(qm.luders_instrument(a))
            w, v = np.linalg.eigh(qm.random_hermitian(len(mp.unitary), rng).matrix)
            u = mp.unitary @ (v * np.exp(-1j * 10.0 ** rng.uniform(-11, -8) * w)) @ v.conj().T
            mp = qm.MeasuringProcess(mp.probe_state, u, mp.meter)
            rho = qm.random_density_operator(d, rng)
            report = qm.theorem2_check(mp, a, rho)
            assert qm.is_precise(mp, a, rho) == report.strong_precise
            assert report.weak_precise or not report.strong_precise
            qm.is_nondisturbing(mp, a, rho)

    def test_commutation_tested_only_behind_the_weak_face(self, monkeypatch):
        # no Haar trial is weakly precise, so none runs the commutation test
        calls = []
        commute = qm.jpd._commute
        monkeypatch.setattr(qm.jpd, "_commute", lambda *args: calls.append(1) or commute(*args))
        census, _ = qm.run_sweep(dims=(2, 4), trials=200, seed=0)
        assert census.theorem2_disagreements == 0 and calls == []
        assert qm.is_precise(dilated_luders(SZ), SZ, qm.DensityOperator.pure(KET_PLUS))
        assert calls


class TestIndependentMeterCounterexample:
    def test_reproducible_but_imprecise(self):
        rho = qm.DensityOperator.pure(KET_PLUS)
        mp = independent_meter_process(SZ, rho)
        assert qm.probability_reproducible(mp, SZ, rho)
        assert not qm.is_precise(mp, SZ, rho)

    def test_gauss_rms_is_sqrt_two_sigma(self):
        rng = qm.rng_from(407)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            mp = independent_meter_process(a, rho)
            a0 = qm.tensor(a, np.eye(mp.probe_dim))
            jd = qm.joint_distribution(a0, mp.evolved_meter(), mp.composite_state(rho))
            assert qm.gauss_rms(jd) == pytest.approx(SQRT2 * qm.std_dev(a, rho), abs=1e-8)

    def test_product_weights_frozen(self):
        rho = qm.DensityOperator.pure(KET_PLUS)
        mp = independent_meter_process(SZ, rho)
        a0 = qm.tensor(SZ, EYE2)
        jd = qm.joint_distribution(a0, mp.evolved_meter(), mp.composite_state(rho))
        assert np.allclose(jd.weights, [[0.25, 0.25], [0.25, 0.25]], atol=1e-12)


class TestCommutingCaseAgreement:
    def test_rms_error_equals_gauss_rms(self):
        # when A(0) and M(dt) commute in the state, the operational rms
        # error is exactly the classical rms gauge of their joint outcomes
        for trial in range(60):
            rng = qm.rng_from(408, trial)
            d = int(rng.integers(2, 4))
            dk = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, dk, rng, interaction="identity")
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            a0 = qm.tensor(a, np.eye(dk))
            jd = qm.joint_distribution(a0, mp.evolved_meter(), mp.composite_state(rho))
            assert qm.gauss_rms(jd) == pytest.approx(qm.rms_error(mp, a, rho), abs=1e-8)

    def test_projective_case(self):
        mp = cnot_process()
        rho = qm.DensityOperator.pure(KET_PLUS)
        a0 = qm.tensor(SZ, EYE2)
        jd = qm.joint_distribution(a0, mp.evolved_meter(), mp.composite_state(rho))
        assert qm.gauss_rms(jd) == pytest.approx(0.0, abs=1e-9)
        assert qm.rms_error(mp, SZ, rho) == pytest.approx(0.0, abs=1e-9)


def _process(probe, unitary, meter_diag):
    return qm.MeasuringProcess(probe, unitary, qm.HermitianObservable(np.diag(meter_diag)))


def oracle_cases():
    """(name, process, A, rho): random instances, then a degenerate A, a
    degenerate meter and a pure probe."""
    cases = []
    for trial in range(8):
        rng = qm.rng_from(409, trial)
        d, dp = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        cases.append((f"random-{trial}", qm.random_measuring_process(d, dp, rng),
                      qm.random_hermitian(d, rng), qm.random_density_operator(d, rng)))
    rng = qm.rng_from(410)
    u = qm.haar_unitary(3 * 3, rng)
    mixed = qm.random_density_operator(3, rng)
    rho = qm.random_density_operator(3, rng)
    v = qm.haar_unitary(3, rng)
    degenerate_a = qm.HermitianObservable(v @ np.diag([0.5, 0.5, -1.0]) @ qm.dagger(v))
    cases.append(("degenerate-A", _process(mixed, u, [0.0, 1.0, 2.0]), degenerate_a, rho))
    cases.append(("degenerate-meter", _process(mixed, u, [1.0, 1.0, -1.0]),
                  qm.random_hermitian(3, rng), rho))
    pure = qm.random_pure_state(3, rng)
    cases.append(("pure-probe", _process(pure, u, [0.0, 1.0, 2.0]),
                  qm.random_hermitian(3, rng), rho))
    return cases


ORACLE_CASES = oracle_cases()


class TestReferenceWeights:
    @pytest.mark.parametrize("mp, a, rho", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_weak_weights_match_reference(self, mp, a, rho):
        da = qm.spectral_decompose(a)
        dm = qm.spectral_decompose(mp.evolved_meter())
        ref = reference_joint_weights([np.kron(p, np.eye(mp.probe_dim)) for p in da.projectors],
                                      dm.projectors, mp.composite_state(rho))
        wjd = qm.weak_joint_distribution(mp, a, rho)
        assert np.iscomplexobj(wjd.weights)
        assert np.abs(wjd.weights - ref).max() <= 1e-12

    @pytest.mark.parametrize("mp, a, rho", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_joint_weights_match_reference(self, mp, a, rho):
        # A x 1 and 1 x M commute as operators, hence in every state
        x = mp.embedded_system(a)
        y = qm.tensor(np.eye(mp.system_dim), mp.meter.matrix)
        sigma = mp.composite_state(rho)
        ref = reference_joint_weights(qm.spectral_decompose(x).projectors,
                                      qm.spectral_decompose(y).projectors, sigma)
        jd = qm.joint_distribution(x, y, sigma)
        assert not np.iscomplexobj(jd.weights)
        assert np.abs(jd.weights - ref).max() <= 1e-12


def fresh(mp: qm.MeasuringProcess) -> qm.MeasuringProcess:
    """The same process with an empty cache."""
    return qm.MeasuringProcess(mp.probe_state, mp.unitary, mp.meter)


class TestClosedFormMeasures:
    """M(dt), B(0) and B(dt) take their spectral measures from the
    decompositions of their factors, so the meter has one set of outcome
    values, no eigensolve runs on the composite space, and no matrix of a
    sweep trial is diagonalised twice."""

    def test_no_eigensolve_on_composite_space(self, monkeypatch):
        sizes, inputs, repeats = [], set(), []

        def spy(solve, m, *args, **kw):
            sizes.append(np.shape(m)[-1])
            key = hash(np.ascontiguousarray(m).tobytes())
            if key in inputs:
                repeats.append(np.shape(m))
            inputs.add(key)
            return solve(m, *args, **kw)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, functools.partial(spy, getattr(np.linalg, name)))
        # each trial starts by drawing its stream
        monkeypatch.setattr(qm.sweep, "rng_from", lambda *key: inputs.clear() or qm.rng_from(*key))
        qm.run_sweep(dims=(3, 3), trials=4, seed=0)
        assert sizes and max(sizes) <= 3
        assert repeats == []
        rng = qm.rng_from(811)
        for ds, dp in ((2, 3), (3, 2), (3, 3)):
            a, b = qm.random_hermitian(ds, rng), qm.random_hermitian(ds, rng)
            rho = qm.random_density_operator(ds, rng)
            for mp in (qm.random_measuring_process(ds, dp, rng),
                       qm.random_measuring_process(ds, dp, rng, interaction="identity"),
                       qm.dilate(qm.luders_instrument(a))):
                sizes.clear()
                qm.theorem2_check(fresh(mp), a, rho)
                qm.is_precise(fresh(mp), a, rho)
                qm.is_nondisturbing(fresh(mp), b, rho)
                qm.is_nondisturbing(fresh(mp), a, rho)
                qm.weak_joint_distribution(fresh(mp), a, rho)
                qm.probability_reproducible(fresh(mp), a, rho)
                assert max(sizes) <= max(mp.system_dim, mp.probe_dim)

    def test_weak_atoms_are_instrument_outcomes(self):
        rng = qm.rng_from(3)
        for _ in range(60):
            ds, dp = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mp = qm.random_measuring_process(ds, dp, rng)
            a, rho = qm.random_hermitian(ds, rng), qm.random_density_operator(ds, rng)
            atoms = qm.weak_joint_distribution(mp, a, rho).y_atoms
            assert tuple(atoms.tolist()) == qm.instrument_from_process(fresh(mp)).outcomes

    def test_dilated_instrument_atoms_are_its_outcomes(self):
        rng = qm.rng_from(4)
        for _ in range(20):
            mp = qm.dilate(qm.random_cp_instrument(3, 3, rng))
            a, rho = qm.random_hermitian(3, rng), qm.random_density_operator(3, rng)
            atoms = qm.weak_joint_distribution(mp, a, rho).y_atoms
            assert tuple(atoms.tolist()) == (0.0, 1.0, 2.0)
            assert qm.instrument_from_process(fresh(mp)).outcomes == (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("mp, a, rho", [c[1:] for c in reference_cases()],
                             ids=[c[0] for c in reference_cases()])
    def test_y_marginal_is_instrument_statistics(self, mp, a, rho):
        wjd = qm.weak_joint_distribution(mp, a, rho)
        probs = qm.outcome_probabilities(qm.instrument_from_process(mp), rho)
        assert tuple(wjd.y_atoms.tolist()) == probs.outcomes
        assert np.abs(wjd.weights.sum(axis=0) - probs.probabilities).max() <= 1e-12


class TestClusterChain:
    """Values 0, 0.8, 1.6, 2.4 (units of eq_tol = 1e-9) on top of a value of
    order 1, so that the slack is about eq_tol: each within the slack of the
    next, 2.4 eq_tol end to end. All clustering and all value matching
    merges them into one."""

    CHAIN = [0.0, 0.8e-9, 1.6e-9, 2.4e-9]
    SHIFTED = [1.0 + x for x in CHAIN]

    def test_spectral_decompose(self):
        dec = qm.spectral_decompose(np.diag(self.CHAIN + [1.0]))
        assert len(dec.eigenvalues) == 2
        assert np.trace(dec.projectors[0]).real == pytest.approx(4.0)

    def test_instrument_choi_distance(self):
        # split pairwise instead of by chain, the clusters would pit P0 against P1
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        a = qm.CPInstrument(self.SHIFTED[0::2], [[p0], [p1]])
        b = qm.CPInstrument(self.SHIFTED[1::2], [[p1], [p0]])
        assert qm.instrument_choi_distance(a, b) <= 1e-12

    def test_theorem2_check(self):
        # A takes 1 and 1 + 1.6e-9 on |0>, |1>; the meter reads 1 + 0.8e-9 on
        # |1> and 1 + 2.4e-9 on |0>. Only the merged cluster reproduces A's
        # statistics.
        a = np.diag(self.SHIFTED[0::2])
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        mp = qm.dilate(qm.CPInstrument(self.SHIFTED[1::2], [[p1], [p0]]))
        rho = qm.DensityOperator.pure(KET_PLUS)
        assert qm.theorem2_check(mp, a, rho).prob_repro_on_cyclic
        assert qm.probability_reproducible(mp, a, rho)

    def test_every_precision_face_matches_by_chain(self):
        # A takes 1 and 1 + 1.6e-9; an uncoupled meter reads 1 + 0.8e-9 or
        # 1 + 2.4e-9 at random. Each atom pairs values of one chain, so all
        # four faces hold; pairwise matching put 1 against 1 + 2.4e-9.
        a = np.diag(self.SHIFTED[0::2])
        mp = identity_coupling_process(np.diag(self.SHIFTED[1::2]),
                                       qm.DensityOperator(np.eye(2) / 2))
        rho = qm.DensityOperator(np.eye(2) / 2)
        assert qm.theorem2_check(mp, a, rho).flags() == (True, True, True, True)
        assert qm.is_precise(mp, a, rho)
        assert qm.theorem2_check(mp, a, rho).weak_precise


COMPOSITE_CASES = composite_cases()


def composite_pairs(mp, x, rho):
    """Composite projector stacks of X(0) = X x 1, with X's values, and of
    B(dt) = U+ (X x 1) U and M(dt), each from its own decomposition, with
    rho x rho0."""
    dp = mp.probe_dim
    dx = qm.spectral_decompose(x)
    before = np.stack([np.kron(p, np.eye(dp)) for p in dx.projectors])
    after = qm.dagger(mp.unitary) @ before @ mp.unitary
    return dx, before, after, qm.spectral_decompose(mp.evolved_meter()), mp.composite_state(rho)


class TestInstrumentSideMatchesComposite:
    """The POVM, the joint weights and the strong faces, computed from the
    process's d_s x d_s Kraus operators and thin after-factors, against
    their composite definitions (the mean and moment operators are in
    test_edr.TestProbeAverage)."""

    @pytest.mark.parametrize("mp, a, b, rho", [c[1:] for c in COMPOSITE_CASES],
                             ids=[c[0] for c in COMPOSITE_CASES])
    def test_povm_and_joint_weights(self, mp, a, b, rho):
        dims = (mp.system_dim, mp.probe_dim)
        lift = np.kron(np.eye(mp.system_dim), mp.probe_state.matrix)
        _, before, _, dm, sigma = composite_pairs(mp, a, rho)
        stack = mp._kraus_stack
        # one flat read-only stack: a row per meter eigenvector column and kept probe eigenvalue
        assert stack.kraus.shape == (sum(stack.sizes), mp.system_dim, mp.system_dim)
        assert not stack.kraus.flags.writeable
        values, effects = stack.values, stack.effects
        assert np.abs(values - dm.eigenvalues).max() <= 1e-12 * np.abs(values).max()
        want = qm.hermitian_part(reference_partial_trace(dm.projectors @ lift, dims))
        assert np.abs(effects - want).max() <= 1e-12
        weak = qm.weak_joint_distribution(mp, a, rho).weights
        assert np.abs(weak - reference_joint_weights(before, dm.projectors, sigma)).max() <= 1e-12
        _, before, after, _, sigma = composite_pairs(mp, b, rho)
        ctx = qm.edr._Scenario(mp, None, b, rho)
        pair = qm.jpd._before_after(ctx, "b").weights
        assert np.abs(pair - reference_joint_weights(before, after, sigma)).max() <= 1e-12

    @pytest.mark.parametrize("mp, a, b, rho", [c[1:] for c in COMPOSITE_CASES],
                             ids=[c[0] for c in COMPOSITE_CASES])
    def test_strong_faces(self, mp, a, b, rho):
        dx, before, _, dm, sigma = composite_pairs(mp, a, rho)
        assert qm.is_precise(mp, a, rho) == reference_strong_face(
            before, dx.eigenvalues, dm.projectors, dm.eigenvalues, sigma)
        for x in (a, b):
            dx, before, after, _, sigma = composite_pairs(mp, x, rho)
            assert qm.is_nondisturbing(mp, x, rho) == reference_strong_face(
                before, dx.eigenvalues, after, dx.eigenvalues, sigma)

    @pytest.mark.parametrize("mp, a, b, rho", [c[1:] for c in COMPOSITE_CASES],
                             ids=[c[0] for c in COMPOSITE_CASES])
    def test_commutation_on_the_state_factor(self, mp, a, b, rho):
        # _commute reads the supports of rho and rho0, never rho x rho0; with
        # every value 0 no atom lies off the diagonal, so the reference tests
        # commutation alone
        def reference(before, after, sigma):
            return reference_strong_face(before, np.zeros(len(before)),
                                         after, np.zeros(len(after)), sigma)

        ctx = qm.edr._Scenario(mp, a, b, rho)
        _, before, _, dm, sigma = composite_pairs(mp, a, rho)
        assert qm.jpd._commutes_after(ctx, "a") == reference(before, dm.projectors, sigma)
        a0 = np.kron(a.matrix, np.eye(mp.probe_dim))
        assert qm.commute_in_state(a0, mp.evolved_meter(), sigma) == reference(
            before, dm.projectors, sigma)
        _, before, after, _, sigma = composite_pairs(mp, b, rho)
        assert qm.jpd._commutes_after(ctx, "b") == reference(before, after, sigma)

    @pytest.mark.parametrize("mp, a, b, rho", [c[1:] for c in COMPOSITE_CASES],
                             ids=[c[0] for c in COMPOSITE_CASES])
    def test_after_factors_match_the_conjugated_coupling(self, monkeypatch, mp, a, b, rho):
        # each row factor read from U's rows against the reference factor V
        # from U+ reshaped: the same projector G+ G = V V+, whatever the row
        # order, and orthonormal rows; the recording _commute lists them
        # before testing any
        seen, commute = [], qm.jpd._commute

        def recording(p, rows, states, tol):
            seen.append(list(rows))
            return commute(p, seen[-1], states, tol)

        monkeypatch.setattr(qm.jpd, "_commute", recording)
        ctx = qm.edr._Scenario(mp, a, b, rho)
        for x, blocks in (("a", mp._meter_measure.blocks), ("b", ctx.decomposition("b").blocks)):
            qm.jpd._commutes_after(ctx, x)
            want = reference_after_factors(mp, x, blocks)
            assert len(seen[-1]) == len(want)
            for g, v in zip(seen[-1], want):
                assert np.abs(qm.dagger(g) @ g - v @ qm.dagger(v)).max() <= 1e-13
                assert np.abs(g @ qm.dagger(g) - np.eye(len(g))).max() <= 1e-13

    def test_strong_faces_decide_both_ways(self):
        # the cases above hold precise and imprecise, disturbing and
        # nondisturbing processes, so a face stuck at one value shows
        flags = {(name, qm.is_precise(mp, a, rho), qm.is_nondisturbing(mp, b, rho))
                 for name, mp, a, b, rho in COMPOSITE_CASES}
        assert {p for _, p, _ in flags} == {True, False}
        assert {d for _, _, d in flags} == {True, False}
        assert ("dilated-luders", True, False) in flags and ("identity", False, True) in flags


class TestPreciseFamily:
    """A Lüders measurement followed by a random-unitary channel, K_{m,j} =
    sqrt(p_j) V_j P_m: precise for A in every state, so every face reads True,
    the strong one on a dilation of n = d^3."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_every_face_true(self, d):
        rng = qm.rng_from(35, d)
        inst, a = precise_channel_instrument(d, rng)
        for rho in (qm.random_density_operator(d, rng), qm.random_pure_state(d, rng)):
            assert qm.theorem2_check(inst, a, rho).flags() == (True, True, True, True)
            assert qm.is_precise(inst, a, rho)

    def test_traced_peak_holds_one_coupling(self):
        # d = 8, n = 512: beside the dilation's one coupling, the commutation
        # test holds only (d^2, n) row factors and (d, n, rank) products with
        # L, never a (d, n, d^2) stack P V (about 2.4 n x n units); the row
        # factors read U in place, so a conjugate of U would add a whole unit
        inst, a = precise_channel_instrument(8, qm.rng_from(36, 8))
        rho = qm.random_density_operator(8, qm.rng_from(37, 8))
        report, peak, _ = traced(lambda: qm.theorem2_check(inst, a, rho))
        assert report.flags() == (True, True, True, True)
        assert peak < 2.1 * 512 ** 2 * 16


def split_meter_process(gap: float) -> qm.MeasuringProcess:
    """A qubit read by a 3-level probe started in |0>. System |0> sends the
    probe to (|0> + |1>)/sqrt2 and system |1> to |2>; the meter diag(0,
    gap, 1) then reads 0 or gap for |0> and 1 for |1>. Whether 0 and gap
    are one outcome or two is up to eq_tol."""
    h = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, SQRT2]]) / SQRT2
    swap = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    u = np.kron(np.diag([1.0, 0.0]), h) + np.kron(np.diag([0.0, 1.0]), swap)
    return qm.MeasuringProcess(qm.DensityOperator(np.diag([1.0, 0.0, 0.0])), u,
                               qm.HermitianObservable(np.diag([0.0, gap, 1.0])))


class TestCacheKeyedByTolerance:
    """A process keeps its meter decomposition and POVM under the Tolerances
    it was built with, so the same coupling built under two tolerances
    merges the meter spectrum differently."""

    TIGHT = qm.DEFAULT_TOL
    LOOSE = qm.Tolerances(eq_tol=1e-2)
    A = np.diag([0.0, 1.0])

    def results(self, mp, tol):
        mp = qm.MeasuringProcess(mp.probe_state, mp.unitary, mp.meter, tol=tol)
        rho = qm.DensityOperator.pure(KET_PLUS)
        return (qm.theorem2_check(mp, self.A, rho),
                qm.weak_joint_distribution(mp, self.A, rho).y_atoms.tolist(),
                qm.probability_reproducible(mp, self.A, rho))

    def test_tolerances_merge_the_meter_spectrum_differently(self):
        tight = self.results(split_meter_process(1e-3), self.TIGHT)
        loose = self.results(split_meter_process(1e-3), self.LOOSE)
        assert tight[0].flags() == (False, False, False, False)
        assert loose[0].flags() == (True, True, True, True)
        assert len(tight[1]) == 3 and len(loose[1]) == 2
