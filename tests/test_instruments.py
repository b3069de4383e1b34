import numpy as np
import pytest

import qmeasure as qm
from helpers import (
    CNOT,
    EYE2,
    KET0,
    KET_PLUS,
    P0,
    P1,
    SX,
    SZ,
    cnot_process,
    dilated_luders,
    reference_cases,
    reference_instrument_from_process,
    reference_outcome_probabilities,
    reference_partial_trace,
    trivial_process,
)

REFERENCE_CASES = reference_cases()


def assert_matches_reference(mp):
    """Closed-form instrument agrees with channel evaluation: equal
    outcomes and Kraus counts, per-outcome Choi matrices within 1e-10."""
    inst = qm.instrument_from_process(mp)
    ref = reference_instrument_from_process(mp)
    assert inst.outcomes == ref.outcomes
    assert [len(ops) for ops in inst.kraus] == [len(ops) for ops in ref.kraus]
    for i in range(len(inst.outcomes)):
        assert qm.operator_distance(inst.choi(i), ref.choi(i)) < 1e-10


def process_with(probe_eigenvalues, meter_eigenvalues, system_dim, rng):
    """Haar coupling, with probe state and meter diagonal in Haar bases."""
    dp = len(probe_eigenvalues)
    v = qm.haar_unitary(dp, rng)
    probe = qm.DensityOperator(v @ np.diag(probe_eigenvalues) @ v.conj().T)
    w = qm.haar_unitary(dp, rng)
    meter = qm.HermitianObservable(w @ np.diag(meter_eigenvalues) @ w.conj().T)
    return qm.MeasuringProcess(probe, qm.haar_unitary(system_dim * dp, rng), meter)


class TestOutcomeDistribution:
    def test_born_sigma_z_on_plus(self):
        dist = qm.born_distribution(SZ, qm.DensityOperator.pure(KET_PLUS))
        assert dist.outcomes == (-1.0, 1.0)
        assert np.allclose(dist.probabilities, [0.5, 0.5])
        assert dist.mean() == pytest.approx(0.0, abs=1e-12)
        assert dist.variance() == pytest.approx(1.0)

    def test_as_dict(self):
        d = qm.born_distribution(SZ, qm.DensityOperator.pure(KET0)).as_dict()
        assert d["outcomes"] == [-1.0, 1.0]
        assert d["probabilities"] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.OutcomeDistribution((0.0, 1.0), (1.0,))

    def test_normalization_random(self):
        rng = qm.rng_from(201)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            dist = qm.born_distribution(qm.random_hermitian(d, rng), qm.random_density_operator(d, rng))
            assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in dist.probabilities)


class TestMeasuringProcess:
    def test_dim_inference(self):
        mp = cnot_process()
        assert mp.system_dim == 2
        assert mp.probe_dim == 2

    def test_rejects_non_unitary(self):
        with pytest.raises(qm.ValidationError):
            qm.MeasuringProcess(qm.DensityOperator(P0), np.eye(4) * 1.0001, qm.HermitianObservable(SZ))

    def test_rejects_indivisible_dims(self):
        with pytest.raises(qm.ValidationError):
            qm.MeasuringProcess(qm.DensityOperator(P0), np.eye(3, dtype=complex), qm.HermitianObservable(SZ))

    def test_rejects_meter_probe_mismatch(self):
        with pytest.raises(qm.ValidationError):
            qm.MeasuringProcess(qm.DensityOperator(P0), np.eye(4, dtype=complex),
                                qm.HermitianObservable(np.eye(3)))

    def test_composite_state(self):
        mp = cnot_process()
        rho = qm.DensityOperator.pure(KET_PLUS)
        assert np.allclose(mp.composite_state(rho), np.kron(rho.matrix, P0))

    def test_evolved_meter_heisenberg(self):
        mp = cnot_process()
        expected = CNOT.conj().T @ np.kron(EYE2, SZ) @ CNOT
        assert np.allclose(mp.evolved_meter(), expected)

    def test_evolved_system_identity_when_uncoupled(self):
        mp = trivial_process()
        assert np.allclose(mp.evolved_system(SX), np.kron(SX, EYE2))

    @pytest.mark.parametrize("name", ["unitary", "meter", "probe_state", "tol"])
    def test_attributes_cannot_be_reassigned(self, name):
        mp = cnot_process()
        with pytest.raises(AttributeError):
            setattr(mp, name, getattr(mp, name))

    def test_meter_cannot_change_under_the_cached_evolved_meter(self):
        mp = cnot_process()
        m_dt = mp.evolved_meter()
        with pytest.raises(AttributeError):
            mp.meter.matrix = SX
        with pytest.raises(AttributeError):
            mp.meter.dim = 7
        assert np.array_equal(mp.meter.matrix, SZ) and mp.evolved_meter() is m_dt

    def test_evolved_meter_computed_once_and_read_only(self):
        mp = cnot_process()
        m_dt = mp.evolved_meter()
        assert mp.evolved_meter() is m_dt
        with pytest.raises(ValueError):
            m_dt[0, 0] = 0.0


class TestChoiKraus:
    def test_choi_of_identity_channel(self):
        c = qm.choi_matrix([np.eye(2, dtype=complex)], 2)
        vec = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(c, np.outer(vec, vec.conj()))

    def test_kraus_choi_round_trip(self):
        rng = qm.rng_from(202)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(int(rng.integers(1, 4)))]
            c = qm.choi_matrix(ks, d)
            back = qm.choi_matrix(qm.kraus_from_choi(c, d, cutoff=1e-12), d)
            assert qm.operator_distance(c, back) < 1e-8

    def test_apply_kraus_matches_sum(self):
        rho = qm.DensityOperator.pure(KET_PLUS).matrix
        out = qm.apply_kraus([P0, P1], rho)
        assert np.allclose(out, P0 @ rho @ P0 + P1 @ rho @ P1)


class TestCPInstrument:
    def test_outcomes_sorted_with_kraus(self):
        inst = qm.CPInstrument([3.0, -1.0], [[P1], [P0]])
        assert inst.outcomes == (-1.0, 3.0)
        assert np.allclose(inst.kraus[0][0], P0)
        assert np.allclose(inst.kraus[1][0], P1)

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.CPInstrument([1.0, 1.0], [[P0], [P1]])

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.CPInstrument([0.0, 1.0], [[P0], [0.5 * P1]])

    def test_luders_apply_and_effect(self):
        inst = qm.luders_instrument(SX)
        rho = qm.DensityOperator.pure(KET0)
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        out = inst.apply(rho, 1.0)
        assert np.trace(out).real == pytest.approx(0.5)
        assert np.allclose(out, 0.5 * plus)
        idx = inst.outcomes.index(1.0)
        assert np.allclose(inst.effect(idx), plus)

    def test_apply_defaults_to_full_channel(self):
        inst = qm.luders_instrument(SZ)
        rho = qm.DensityOperator.pure(KET_PLUS)
        out = inst.apply(rho)
        assert np.allclose(out, EYE2 / 2)

    def test_apply_unknown_outcome_rejected(self):
        inst = qm.luders_instrument(SZ)
        with pytest.raises(qm.ValidationError):
            inst.apply(qm.DensityOperator.pure(KET0), 7.0)

    def test_outcome_without_kraus_operators(self):
        inst = qm.CPInstrument([0, 1, 2], [[P0], [], [P1]])
        rho = qm.DensityOperator.pure(KET_PLUS)
        assert len(inst.kraus[1]) == 0
        assert qm.outcome_probabilities(inst, rho).probabilities[1] == 0.0
        assert np.array_equal(inst.apply(rho, 1.0), np.zeros((2, 2)))
        with pytest.raises(qm.ZeroProbabilityError):
            qm.post_state(inst, 1.0, rho)
        assert qm.dilate(inst).probe_dim == 2
        assert qm.povm_of(inst).outcomes == (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("name", ["outcomes", "kraus", "dim", "tol", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        inst = qm.luders_instrument(SZ)
        with pytest.raises(AttributeError):
            setattr(inst, name, getattr(inst, name, None))
        with pytest.raises(AttributeError):
            delattr(inst, name)

    def test_kraus_stacks_and_effects_read_only(self):
        inst = qm.CPInstrument([0, 1, 2], [[P0], [], [P1]])
        assert [k.shape for k in inst.kraus] == [(1, 2, 2), (0, 2, 2), (1, 2, 2)]
        with pytest.raises(ValueError):
            inst.kraus[0][0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            inst.effect(0)[0, 0] = 2.0

    def test_outcome_probabilities_match_effects(self):
        rng = qm.rng_from(203)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            inst = qm.random_cp_instrument(d, int(rng.integers(2, 4)), rng)
            rho = qm.random_density_operator(d, rng)
            dist = qm.outcome_probabilities(inst, rho)
            for i, p in enumerate(dist.probabilities):
                direct = np.trace(inst.effect(i) @ rho.matrix).real
                assert p == pytest.approx(direct, abs=1e-10)


class TestInstrumentFromProcess:
    def test_cnot_instrument_frozen(self):
        inst = qm.instrument_from_process(cnot_process())
        assert inst.outcomes == (-1.0, 1.0)
        assert np.allclose(inst.choi(0), np.diag([0, 0, 0, 1]), atol=1e-10)
        assert np.allclose(inst.choi(1), np.diag([1, 0, 0, 0]), atol=1e-10)

    def test_trivial_process_gives_identity_instrument(self):
        inst = qm.instrument_from_process(trivial_process())
        assert inst.outcomes == (1.0,)
        ident = qm.choi_matrix([np.eye(2, dtype=complex)], 2)
        assert qm.operator_distance(inst.choi(0), ident) < 1e-10

    def test_probability_agreement_random(self):
        # the extracted instrument reproduces the Heisenberg-picture meter
        # statistics: Tr[I(m) rho] = Tr[R_m (rho x rho0)] with R_m the
        # spectral projectors of the evolved meter, 1000 seeded processes
        for trial in range(1000):
            rng = qm.rng_from(204, trial)
            d = int(rng.integers(2, 4))
            dk = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, dk, rng)
            rho = qm.random_density_operator(d, rng)
            inst = qm.instrument_from_process(mp)
            dist = qm.outcome_probabilities(inst, rho)
            evolved = qm.spectral_decompose(mp.evolved_meter())
            composite = mp.composite_state(rho)
            assert len(evolved.eigenvalues) == len(dist.outcomes)
            for m, p, proj in zip(dist.outcomes, dist.probabilities, evolved.projectors):
                direct = np.trace(proj @ composite).real
                assert abs(p - direct) < 1e-8, f"trial {trial}, outcome {m}"

    def test_channel_is_trace_preserving(self):
        rng = qm.rng_from(205)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            rho = qm.random_density_operator(d, rng)
            inst = qm.instrument_from_process(mp)
            assert np.trace(inst.apply(rho)).real == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_matches_channel_evaluation_random(self):
        rng = qm.rng_from(210)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            assert_matches_reference(qm.random_measuring_process(d, int(rng.integers(2, 6)), rng))

    def test_closed_form_probe_larger_than_system(self):
        rng = qm.rng_from(211)
        for dp in (3, 4, 5):
            assert_matches_reference(qm.random_measuring_process(2, dp, rng, pure_probe=False))

    def test_closed_form_clustered_meter(self):
        # eigenvalues closer than eq_tol merge into one outcome
        rng = qm.rng_from(212)
        mp = process_with([0.4, 0.3, 0.2, 0.1], [0.0, 1e-12, 1.0, 1.0 + 1e-12], 3, rng)
        assert qm.instrument_from_process(mp).outcomes == pytest.approx((0.0, 1.0))
        assert_matches_reference(mp)

    def test_closed_form_rank_deficient_and_pure_probes(self):
        rng = qm.rng_from(213)
        for probe in ([0.5, 0.5, 0.0, 0.0], [0.7, 0.0, 0.3, 0.0], [1.0, 0.0, 0.0, 0.0]):
            assert_matches_reference(process_with(probe, [0.0, 1.0, 2.0, 3.0], 3, rng))


class TestPOVM:
    def test_povm_validation(self):
        with pytest.raises(qm.ValidationError):
            qm.POVM([0.0, 1.0], [P0, 0.5 * P1])
        with pytest.raises(qm.ValidationError):
            qm.POVM([0.0, 1.0], [2 * P0, EYE2 - 2 * P0])

    @pytest.mark.parametrize("name", ["outcomes", "effects", "dim", "tol", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        povm = qm.POVM([1.0, 0.0], [P1, P0])
        with pytest.raises(AttributeError):
            setattr(povm, name, getattr(povm, name, None))
        with pytest.raises(AttributeError):
            delattr(povm, name)

    def test_effects_stacked_sorted_and_read_only(self):
        povm = qm.POVM([1.0, 0.0], [P1, P0])
        assert povm.effects.shape == (2, 2, 2)
        assert np.array_equal(povm.effects[0], P0)
        with pytest.raises(ValueError):
            povm.effects[0, 0, 0] = 2.0

    def test_povm_of_matches_instrument(self):
        rng = qm.rng_from(206)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            inst = qm.random_cp_instrument(d, int(rng.integers(2, 4)), rng)
            povm = qm.povm_of(inst)
            rho = qm.random_density_operator(d, rng)
            a = povm.probabilities(rho)
            b = qm.outcome_probabilities(inst, rho)
            assert a.outcomes == b.outcomes
            assert np.allclose(a.probabilities, b.probabilities, atol=1e-9)


class TestStackedFamilyReferences:
    """The stacked computations against the per-operator loops they replaced."""

    @pytest.mark.parametrize("mp, a, rho", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_outcome_probabilities_match_kraus_loop(self, mp, a, rho):
        inst = qm.instrument_from_process(mp)
        got = qm.outcome_probabilities(inst, rho).probabilities
        assert np.abs(np.array(got) - reference_outcome_probabilities(inst, rho)).max() <= 1e-12

    @pytest.mark.parametrize("mp, a, rho", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_stacked_partial_trace_matches_block_sums(self, mp, a, rho):
        dims = (mp.system_dim, mp.probe_dim)
        stack = mp._meter_decomposition(mp.tol).projectors @ qm.tensor(
            np.eye(mp.system_dim), mp.probe_state.matrix)
        for keep in ("first", "second"):
            ref = reference_partial_trace(stack, dims, keep)
            assert np.abs(qm.partial_trace(stack, dims, keep) - ref).max() <= 1e-12
        effects = mp._povm(mp.tol)[1]
        ref = qm.hermitian_part(reference_partial_trace(stack, dims))
        assert np.abs(effects - ref).max() <= 1e-12


MISMATCHED_STATE = np.eye(3, dtype=complex) / 3
DIMENSION_MISMATCHES = {
    "cyclic_subspace": lambda: qm.cyclic_subspace(SZ, MISMATCHED_STATE),
    "born_distribution": lambda: qm.born_distribution(SZ, MISMATCHED_STATE),
    "POVM.probabilities": lambda: qm.POVM([0, 1], [P0, P1]).probabilities(MISMATCHED_STATE),
    "outcome_probabilities": lambda: qm.outcome_probabilities(qm.luders_instrument(SZ),
                                                              MISMATCHED_STATE),
    "commute_in_state": lambda: qm.commute_in_state(SZ, SX, MISMATCHED_STATE),
    "joint_distribution": lambda: qm.joint_distribution(SZ, SZ, MISMATCHED_STATE),
    "check_repeatability": lambda: qm.check_repeatability(qm.luders_instrument(SZ), SZ,
                                                          MISMATCHED_STATE, 0.0),
    "check_repeatability-instrument": lambda: qm.check_repeatability(
        qm.luders_instrument(SZ), np.diag([1.0, 2.0, 3.0]), MISMATCHED_STATE, 0.0),
    "apply_kraus": lambda: qm.apply_kraus(qm.luders_instrument(SZ).kraus[0], MISMATCHED_STATE),
    "CPInstrument.apply": lambda: qm.luders_instrument(SZ).apply(MISMATCHED_STATE),
    "post_state": lambda: qm.post_state(qm.luders_instrument(SZ), 1.0, MISMATCHED_STATE),
    "edr_ledger": lambda: qm.edr_ledger(dilated_luders(SZ), SZ, SX, MISMATCHED_STATE),
    "MeasuringProcess.composite_state": lambda: dilated_luders(SZ).composite_state(
        MISMATCHED_STATE),
    "MeasuringProcess.embedded_system": lambda: dilated_luders(SZ).embedded_system(
        np.diag([1.0, 2.0, 3.0])),
}


@pytest.mark.parametrize("name", list(DIMENSION_MISMATCHES))
def test_dimension_mismatch_is_validation_error(name):
    # a 2 x 2 observable, instrument or process against a 3 x 3 state or observable
    with pytest.raises(qm.ValidationError, match="dimension mismatch"):
        DIMENSION_MISMATCHES[name]()


class TestPostState:
    def test_luders_x_on_zero(self):
        inst = qm.luders_instrument(SX)
        rho = qm.DensityOperator.pure(KET0)
        post = qm.post_state(inst, 1.0, rho)
        assert np.allclose(post.matrix, np.outer(KET_PLUS, KET_PLUS.conj()))

    def test_zero_probability_raises(self):
        inst = qm.luders_instrument(SZ)
        rho = qm.DensityOperator.pure(KET0)
        with pytest.raises(qm.ZeroProbabilityError, match="zero-probability condition"):
            qm.post_state(inst, -1.0, rho)

    def test_outcome_set_conditioning(self):
        inst = qm.luders_instrument(np.diag([0.0, 1.0, 2.0]).astype(complex))
        rho = qm.DensityOperator.maximally_mixed(3)
        post = qm.post_state(inst, [0.0, 1.0], rho)
        assert np.allclose(post.matrix, np.diag([0.5, 0.5, 0.0]))


class TestDilation:
    def test_round_trip_choi(self):
        rng = qm.rng_from(207)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            inst = qm.random_cp_instrument(d, int(rng.integers(2, 4)), rng)
            mp = qm.dilate(inst)
            back = qm.instrument_from_process(mp)
            assert qm.instrument_choi_distance(inst, back) < 1e-8

    def test_probe_is_pure_ground_state(self):
        mp = dilated_luders(SZ)
        probe = mp.probe_state.matrix
        assert probe[0, 0] == pytest.approx(1.0)
        assert np.trace(probe @ probe).real == pytest.approx(1.0)

    def test_probe_dim_counts_kraus(self):
        inst = qm.luders_instrument(np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert qm.dilate(inst).probe_dim == 3

    def test_meter_spectrum_is_outcome_set(self):
        mp = dilated_luders(SZ)
        vals = np.linalg.eigvalsh(mp.meter.matrix)
        assert np.allclose(np.sort(vals), [-1.0, 1.0])

    def test_coupling_is_deterministic(self):
        rng = qm.rng_from(209)
        inst = qm.random_cp_instrument(3, 2, rng)
        u1 = qm.dilate(inst).unitary
        u2 = qm.dilate(inst).unitary
        assert np.array_equal(u1, u2)

    def test_isometry_columns_are_stacked_kraus(self):
        rng = qm.rng_from(214)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            inst = qm.random_cp_instrument(d, int(rng.integers(1, 4)), rng, max_kraus_per_outcome=3)
            u = qm.dilate(inst).unitary
            kraus = [k for ops in inst.kraus for k in ops]
            r = len(kraus)
            for b, k in enumerate(kraus):
                for i in range(d):
                    assert np.array_equal(u[b::r, i * r], k[:, i])
            assert qm.operator_distance(u.conj().T @ u, np.eye(d * r)) <= 1e-12

    def test_round_trip_choi_d6_with_36_kraus(self):
        # the first 6 columns of a Haar unitary on C^216 split into 36 Kraus
        # operators, 6 for each of 6 outcomes; the dilation has n = 216
        rng = qm.rng_from(215)
        d = 6
        iso = qm.haar_unitary(d * 36, rng)[:, :d].reshape(d, 36, d)
        kraus = [[iso[:, 6 * m + j, :] for j in range(6)] for m in range(6)]
        inst = qm.CPInstrument(np.arange(6.0), kraus)
        mp = qm.dilate(inst)
        assert mp.unitary.shape == (216, 216)
        assert qm.operator_distance(mp.unitary.conj().T @ mp.unitary, np.eye(216)) <= 1e-12
        back = qm.instrument_from_process(mp)
        assert [len(ops) for ops in back.kraus] == [6] * 6
        assert qm.instrument_choi_distance(inst, back) < 1e-10


class TestChoiDistance:
    def test_zero_on_self(self):
        inst = qm.luders_instrument(SX)
        assert qm.instrument_choi_distance(inst, inst) == 0.0

    def test_detects_different_maps(self):
        a = qm.luders_instrument(SX)
        b = qm.luders_instrument(SZ)
        assert qm.instrument_choi_distance(a, b) > 0.1

    def test_unmatched_outcome_compared_to_zero_map(self):
        a = qm.CPInstrument([0.0], [[np.eye(2, dtype=complex)]])
        b = qm.CPInstrument([5.0], [[np.eye(2, dtype=complex)]])
        assert qm.instrument_choi_distance(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        a = qm.luders_instrument(SZ)
        b = qm.luders_instrument(np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(qm.ValidationError):
            qm.instrument_choi_distance(a, b)


class TestRepeatability:
    def test_luders_is_repeatable(self):
        rng = qm.rng_from(208)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            rep = qm.check_repeatability(qm.luders_instrument(a), a, rho, epsilon=0.0)
            assert rep.repeatable
            assert rep.worst_residual < 1e-7
            assert rep.ar_bound_ok

    def test_raw_state_is_validated_once(self, monkeypatch):
        # one DensityOperator for the raw state and one per post-measurement state
        built = []
        init = qm.DensityOperator.__init__
        monkeypatch.setattr(qm.DensityOperator, "__init__",
                            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        a = np.diag([0.0, 1.0, 2.0, 3.0])
        inst = qm.luders_instrument(a)
        rep = qm.check_repeatability(inst, a, np.eye(4) / 4, epsilon=0.0)
        assert len(built) <= 5
        assert rep == qm.RepeatabilityReport(
            repeatable=True, worst_residual=0.0, outcomes=(0.0, 1.0, 2.0, 3.0),
            residuals=(0.0,) * 4, post_std_devs=(0.0,) * 4, ar_bound_ok=True)

    def test_raw_observable_is_validated_once(self, monkeypatch):
        a = np.diag([0.0, 1.0, 2.0, 3.0])
        inst = qm.luders_instrument(a)
        built = []
        init = qm.HermitianObservable.__init__
        monkeypatch.setattr(qm.HermitianObservable, "__init__",
                            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        rep = qm.check_repeatability(inst, a, np.eye(4) / 4, epsilon=0.0)
        assert len(built) == 1
        assert rep == qm.RepeatabilityReport(
            repeatable=True, worst_residual=0.0, outcomes=(0.0, 1.0, 2.0, 3.0),
            residuals=(0.0,) * 4, post_std_devs=(0.0,) * 4, ar_bound_ok=True)

    def test_identity_instrument_not_repeatable(self):
        inst = qm.CPInstrument([0.0], [[np.eye(2, dtype=complex)]])
        rho = qm.DensityOperator.pure(KET_PLUS)
        rep = qm.check_repeatability(inst, SZ, rho, epsilon=0.0)
        assert not rep.repeatable
        # outcome label 0 sits one unit from both sigma_z eigenvalues
        assert rep.worst_residual == pytest.approx(1.0)
        assert rep.ar_bound_ok

    def test_epsilon_slack_admits_residual(self):
        inst = qm.CPInstrument([0.0], [[np.eye(2, dtype=complex)]])
        rho = qm.DensityOperator.pure(KET_PLUS)
        rep = qm.check_repeatability(inst, SZ, rho, epsilon=1.0)
        assert rep.repeatable

    def test_zero_probability_outcomes_skipped(self):
        inst = qm.luders_instrument(SZ)
        rho = qm.DensityOperator.pure(KET0)
        rep = qm.check_repeatability(inst, SZ, rho, epsilon=0.0)
        assert rep.repeatable
        assert rep.outcomes == (1.0,)
