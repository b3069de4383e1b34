import tracemalloc

import numpy as np
import pytest

import qmeasure as qm
from qmeasure.instruments import _apply_kraus, _choi_matrix
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


def old_unitarity_residual(u):
    """max|U+U - 1| as the unitarity check computed it with an n x n identity,
    U+U formed as the check forms it."""
    return qm.operator_distance(u.conj().T @ u, np.eye(len(u)))


def boundary_couplings(n, slack, rng):
    """U(1 + tH) for a Haar U and a Hermitian H of max-abs entry 1, at two
    adjacent floats t from a bisection: the old residual of the first is
    within slack, that of the second beyond it."""
    u = qm.haar_unitary(n, rng)
    h = qm.random_hermitian(n, rng).matrix
    h = h / np.abs(h).max()

    def perturbed(t):
        return u @ (np.eye(n) + t * h)

    lo, hi = 0.0, slack
    assert old_unitarity_residual(perturbed(lo)) <= slack < old_unitarity_residual(perturbed(hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return perturbed(lo), perturbed(hi)
        if old_unitarity_residual(perturbed(mid)) <= slack:
            lo = mid
        else:
            hi = mid


class TestUnitarityCheck:
    """MeasuringProcess checks max|U+U - 1| over the upper triangle of U+U in
    64-row panels, with 1 subtracted on each panel's leading diagonal in
    place: no n x n identity, difference or Gram is built, and the verdict
    is the one the whole n x n Gram gave."""

    @pytest.mark.parametrize("n, dp", [(216, 36), (512, 32)])
    def test_traced_peak_is_the_kept_copy_plus_64_n_panels(self, n, dp):
        rng = qm.rng_from(216)
        u = qm.haar_unitary(n, rng)
        probe = qm.random_pure_state(dp, rng)
        meter = qm.HermitianObservable(np.diag(np.arange(float(dp))))
        unit = n * n * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mp = qm.MeasuringProcess(probe, u, meter)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kept copy of U, then per panel a 64 x n conjugated slice of U, its
        # product with U's columns and the product's abs, at most three
        # 64 x n complex arrays; the probe and meter are a small fraction
        assert peak - base <= unit * (1 + 1 / 16) + 3 * 64 * n * 16
        assert abs((current - base) / unit - 1.0) < 0.1
        assert np.array_equal(mp.unitary, u)

    @pytest.mark.parametrize("n", [4, 64, 65, 129, 200, 216])
    @pytest.mark.parametrize("eq_tol", [1e-9, 1e-16, 1e-300])
    def test_verdict_at_the_slack_boundary(self, n, eq_tol):
        # 65, 129 and 200 take 2, 3 and 4 panels; the probe takes the
        # largest proper divisor of n, n // 2 for even n
        tol = qm.Tolerances(eq_tol=eq_tol)
        slack = max(eq_tol, 16 * n * np.finfo(float).eps)
        dp = n // next(p for p in range(2, n + 1) if n % p == 0)
        probe = qm.DensityOperator.pure(np.eye(dp)[0], tol=tol)
        meter = qm.HermitianObservable(np.diag(np.arange(float(dp))), tol=tol)
        within, beyond = boundary_couplings(n, slack, qm.rng_from(217, n))
        assert old_unitarity_residual(within) <= slack < old_unitarity_residual(beyond)
        assert np.array_equal(qm.MeasuringProcess(probe, within, meter, tol=tol).unitary, within)
        with pytest.raises(qm.ValidationError, match="not unitary"):
            qm.MeasuringProcess(probe, beyond, meter, tol=tol)

    @pytest.mark.parametrize("eq_tol", [1e-9, 1e-16, 1e-300])
    def test_defect_in_the_last_panel_diagonal(self, eq_tol):
        # n = 130 is three panels; scaling U's last column by 1 + c moves only
        # (U+U)[129, 129], by about 2c, on the diagonal of the 2-row last panel
        n, dp = 130, 65
        tol = qm.Tolerances(eq_tol=eq_tol)
        slack = max(eq_tol, 16 * n * np.finfo(float).eps)
        probe = qm.DensityOperator.pure(np.eye(dp)[0], tol=tol)
        meter = qm.HermitianObservable(np.diag(np.arange(float(dp))), tol=tol)
        u = qm.haar_unitary(n, qm.rng_from(218, n))
        within, beyond = (u * np.append(np.ones(n - 1), 1 + c * slack) for c in (0.1, 10))
        assert np.array_equal(qm.MeasuringProcess(probe, within, meter, tol=tol).unitary, within)
        with pytest.raises(qm.ValidationError, match="not unitary"):
            qm.MeasuringProcess(probe, beyond, meter, tol=tol)


class TestChoiKraus:
    def test_choi_of_identity_channel(self):
        c = _choi_matrix([np.eye(2, dtype=complex)], 2)
        vec = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(c, np.outer(vec, vec.conj()))

    def test_kraus_choi_round_trip(self):
        rng = qm.rng_from(202)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(int(rng.integers(1, 4)))]
            c = _choi_matrix(ks, d)
            back = _choi_matrix(qm.kraus_from_choi(c, d, cutoff=1e-12), d)
            assert qm.operator_distance(c, back) < 1e-8
        # a negative cutoff would keep negative Choi eigenvalues as NaN
        # operators; a Choi matrix must be (d^2, d^2)
        c = _choi_matrix([np.eye(2)], 2)
        for choi, cutoff in ((c, -1.0), (c, np.nan), (c[:3, :3], 0.0), (c[:2], 0.0)):
            with pytest.raises(qm.ValidationError):
                qm.kraus_from_choi(choi, 2, cutoff)

    def test_apply_kraus_matches_sum(self):
        rho = qm.DensityOperator.pure(KET_PLUS).matrix
        out = _apply_kraus([P0, P1], rho)
        assert np.allclose(out, P0 @ rho @ P0 + P1 @ rho @ P1)


NAN_P0 = np.diag([np.nan, 0.0]).astype(complex)
INF_P0 = np.diag([1.0, 1j * np.inf])
NON_SQUARE = np.zeros((2, 3), dtype=complex)


class TestCPInstrument:
    def test_outcomes_sorted_with_kraus(self):
        inst = qm.CPInstrument([3.0, -1.0], [[P1], [P0]])
        assert inst.outcomes == (-1.0, 3.0)
        assert np.allclose(inst.kraus[0][0], P0)
        assert np.allclose(inst.kraus[1][0], P1)

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.CPInstrument([1.0, 1.0], [[P0], [P1]])

    @pytest.mark.parametrize("outcomes", [[0.0], [0.0, 1.0, 2.0]], ids=["fewer", "more"])
    def test_outcome_and_family_counts_must_match(self, outcomes):
        with pytest.raises(qm.ValidationError, match="one Kraus family per outcome"):
            qm.CPInstrument(outcomes, [[P0], [P1]])

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(qm.ValidationError):
            qm.CPInstrument([0.0, 1.0], [[P0], [0.5 * P1]])

    @pytest.mark.parametrize("kraus", [
        [[P0, np.eye(3)], [P1]],
        [[P0], [np.eye(3)]],
        [[NON_SQUARE], [P1]],
        [[P0, NON_SQUARE], [P1]],
        [[NAN_P0], [P1]],
        [[P0], [INF_P0]],
        [[], []],
        [],
    ], ids=["mixed-in-family", "mixed-across-families", "non-square", "non-square-in-family",
            "nan", "inf", "all-empty", "no-families"])
    def test_malformed_families_rejected(self, kraus):
        with pytest.raises(qm.ValidationError):
            qm.CPInstrument(np.arange(float(len(kraus))), kraus)

    @pytest.mark.parametrize("kraus", [[NAN_P0], [P0, np.eye(3)], [np.eye(3)]],
                             ids=["nan", "ragged", "wrong-dimension"])
    @pytest.mark.parametrize("use", [lambda ks: _apply_kraus(ks, EYE2 / 2),
                                     lambda ks: _choi_matrix(ks, 2)],
                             ids=["apply_kraus", "choi_matrix"])
    def test_malformed_family_rejected_by_functions(self, use, kraus):
        with pytest.raises(qm.ValidationError):
            use(kraus)

    def test_all_empty_families_message(self):
        with pytest.raises(qm.ValidationError, match="instrument has no Kraus operators at all"):
            qm.CPInstrument([0.0, 1.0], [[], np.zeros((0, 2, 2))])

    @pytest.mark.parametrize("wrap", [list, tuple, np.array])
    def test_family_containers_accepted(self, wrap):
        inst = qm.CPInstrument((1.0, 0.0), wrap([wrap([P1]), wrap([P0])]))
        assert inst.outcomes == (0.0, 1.0)
        assert np.array_equal(inst.kraus[0], [P0]) and np.array_equal(inst.kraus[1], [P1])

    def test_ragged_families_of_arrays_accepted(self):
        half = np.sqrt(0.5) * EYE2
        inst = qm.CPInstrument([0.0, 1.0], (np.stack([half, np.sqrt(0.5) * P0]), (P1 * np.sqrt(0.5),)))
        assert [k.shape for k in inst.kraus] == [(2, 2, 2), (1, 2, 2)]

    def test_kraus_stacks_are_copies(self):
        src = np.array([[P0], [P1]])
        inst = qm.CPInstrument([0.0, 1.0], src)
        src[0, 0, 0, 0] = 5.0
        assert np.array_equal(inst.kraus[0], [P0])

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
        # each family is a view of the one labelled stack, not a second copy
        assert inst._kraus_stack.kraus.shape == (2, 2, 2)
        for m in (0, 2):
            assert np.shares_memory(inst.kraus[m], inst._kraus_stack.kraus)
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
        ident = _choi_matrix([np.eye(2, dtype=complex)], 2)
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


class TestReadBackOfDilations:
    """instrument_from_process on dilated instruments: the meter is degenerate
    whenever an outcome has several Kraus operators, and the outcomes' Kraus
    families are ragged, so every outcome is factored in the one zero-padded
    SVD next to larger ones."""

    @staticmethod
    def assert_reads_back(inst):
        back = qm.instrument_from_process(qm.dilate(inst))
        assert [len(ops) for ops in back.kraus] == [len(ops) for ops in inst.kraus]
        for ops in back.kraus:
            norms = np.linalg.norm(ops, axis=(1, 2))
            assert np.all(np.diff(norms) <= 1e-12)
        assert qm.instrument_choi_distance(back, inst) <= 1e-12

    def test_ragged_random_instruments(self):
        rng = qm.rng_from(217)
        for d in range(2, 7):
            for _ in range(8):
                inst = qm.random_cp_instrument(d, int(rng.integers(1, 5)), rng,
                                               max_kraus_per_outcome=3)
                self.assert_reads_back(inst)

    def test_luders_instruments_of_degenerate_observables(self):
        rng = qm.rng_from(218)
        for d in range(2, 7):
            for _ in range(4):
                values = rng.integers(0, d, size=d).astype(float)
                v = qm.haar_unitary(d, rng)
                self.assert_reads_back(qm.luders_instrument((v * values) @ v.conj().T))


class TestPOVM:
    def test_povm_validation(self):
        with pytest.raises(qm.ValidationError):
            qm.POVM([0.0, 1.0], [P0, 0.5 * P1])
        with pytest.raises(qm.ValidationError):
            qm.POVM([0.0, 1.0], [2 * P0, EYE2 - 2 * P0])

    @pytest.mark.parametrize("effects", [
        [P0, np.eye(3)],
        [P0, NON_SQUARE],
        [NAN_P0, P1],
        [P0, INF_P0],
        [],
    ], ids=["mixed", "non-square", "nan", "inf", "empty"])
    def test_malformed_effects_rejected(self, effects):
        with pytest.raises(qm.ValidationError):
            qm.POVM(np.arange(float(len(effects))), effects)

    @pytest.mark.parametrize("outcomes", [[np.nan, 1.0], [np.nan, np.nan], [0.0, np.inf],
                                          [-np.inf, 0.0]],
                             ids=["nan", "two-nans", "inf", "minus-inf"])
    def test_non_finite_outcomes_rejected(self, outcomes):
        with pytest.raises(qm.ValidationError, match="entries must be finite"):
            qm.POVM(outcomes, [P0, P1])
        with pytest.raises(qm.ValidationError, match="entries must be finite"):
            qm.CPInstrument(outcomes, [[P0], [P1]])

    @pytest.mark.parametrize("outcomes", [["0", "1"], [False, True], ["0", True], [0.0, 1j]],
                             ids=["strings", "bools", "string-and-bool", "complex"])
    def test_non_real_outcomes_rejected(self, outcomes):
        # float() would read "0" as 0.0 and True as 1.0
        with pytest.raises(qm.ValidationError, match="need real numbers"):
            qm.POVM(outcomes, [P0, P1])
        with pytest.raises(qm.ValidationError, match="need real numbers"):
            qm.CPInstrument(outcomes, [[P0], [P1]])

    @pytest.mark.parametrize("wrap", [list, tuple, np.array])
    def test_effect_containers_accepted(self, wrap):
        povm = qm.POVM((1.0, 0.0), wrap([P1, P0]))
        assert povm.outcomes == (0.0, 1.0)
        assert np.array_equal(povm.effects, [P0, P1])

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

    def test_povm_of_is_the_instruments_own(self):
        inst = qm.random_cp_instrument(3, 2, qm.rng_from(216))
        povm = qm.povm_of(inst)
        assert qm.povm_of(inst) is povm
        assert povm.outcomes == inst.outcomes and povm.tol == inst.tol
        assert all(np.shares_memory(inst.effect(i), povm.effects) for i in range(2))
        with pytest.raises(ValueError):
            povm.effects[0, 0, 0] = 2.0


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
        # the projectors U+ (1 x Q_m) U of M(dt), times 1 x rho0
        dims = (mp.system_dim, mp.probe_dim)
        meter = qm.spectral_decompose(mp.meter)
        lifted = np.stack([np.kron(np.eye(mp.system_dim), q) for q in meter.projectors])
        evolved = qm.dagger(mp.unitary) @ lifted @ mp.unitary
        stack = evolved @ qm.tensor(np.eye(mp.system_dim), mp.probe_state.matrix)
        for keep in ("first", "second"):
            ref = reference_partial_trace(stack, dims, keep)
            assert np.abs(qm.partial_trace(stack, dims, keep) - ref).max() <= 1e-12
        effects = mp._kraus_stack.effects
        ref = qm.hermitian_part(reference_partial_trace(stack, dims))
        assert np.abs(effects - ref).max() <= 1e-12


MISMATCHED_STATE = np.eye(3, dtype=complex) / 3
MISMATCHED_OBSERVABLE = np.diag([1.0, 2.0, 3.0])
DIMENSION_MISMATCHES = {
    "std_dev": lambda: qm.std_dev(SZ, MISMATCHED_STATE),
    "robertson_bound": lambda: qm.robertson_bound(SZ, SX, MISMATCHED_STATE),
    "robertson_bound-b": lambda: qm.robertson_bound(SZ, MISMATCHED_OBSERVABLE, np.eye(2) / 2),
    "MeasuringProcess-meter": lambda: qm.MeasuringProcess(
        qm.DensityOperator.pure([1.0, 0.0]), np.eye(4), MISMATCHED_OBSERVABLE),
    "cyclic_subspace": lambda: qm.cyclic_subspace(SZ, MISMATCHED_STATE),
    "cyclic_subspace-observable": lambda: qm.cyclic_subspace(MISMATCHED_OBSERVABLE, np.eye(2) / 2),
    "born_distribution": lambda: qm.born_distribution(SZ, MISMATCHED_STATE),
    "born_distribution-observable": lambda: qm.born_distribution(MISMATCHED_OBSERVABLE,
                                                                 np.eye(2) / 2),
    "commute_in_state-y": lambda: qm.commute_in_state(SZ, MISMATCHED_OBSERVABLE, np.eye(2) / 2),
    "POVM.probabilities": lambda: qm.POVM([0, 1], [P0, P1]).probabilities(MISMATCHED_STATE),
    "outcome_probabilities": lambda: qm.outcome_probabilities(qm.luders_instrument(SZ),
                                                              MISMATCHED_STATE),
    "commute_in_state": lambda: qm.commute_in_state(SZ, SX, MISMATCHED_STATE),
    "joint_distribution": lambda: qm.joint_distribution(SZ, SZ, MISMATCHED_STATE),
    "check_repeatability": lambda: qm.check_repeatability(qm.luders_instrument(SZ), SZ,
                                                          MISMATCHED_STATE, 0.0),
    "check_repeatability-instrument": lambda: qm.check_repeatability(
        qm.luders_instrument(SZ), MISMATCHED_OBSERVABLE, MISMATCHED_STATE, 0.0),
    "apply_kraus": lambda: _apply_kraus(qm.luders_instrument(SZ).kraus[0], MISMATCHED_STATE),
    "CPInstrument.apply": lambda: qm.luders_instrument(SZ).apply(MISMATCHED_STATE),
    "post_state": lambda: qm.post_state(qm.luders_instrument(SZ), 1.0, MISMATCHED_STATE),
    "edr_ledger": lambda: qm.edr_ledger(dilated_luders(SZ), SZ, SX, MISMATCHED_STATE),
    "MeasuringProcess.composite_state": lambda: dilated_luders(SZ).composite_state(
        MISMATCHED_STATE),
    "MeasuringProcess.embedded_system": lambda: dilated_luders(SZ).embedded_system(
        MISMATCHED_OBSERVABLE),
}


@pytest.mark.parametrize("name", list(DIMENSION_MISMATCHES))
def test_dimension_mismatch_is_validation_error(name):
    # a 2 x 2 argument, instrument or process against a 3 x 3 state or observable, or the reverse
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

    def test_nearby_outcomes_are_selected_separately(self):
        # outcomes 0 and 1e-12 lie within the match slack of each other; a
        # requested value selects only the nearest outcome
        inst = qm.CPInstrument([0.0, 1e-12, 1.0], [[np.diag(e)] for e in np.eye(3)])
        rho = np.eye(3) / 3
        for value, kept in ((0.0, 0), (1e-12, 1), (1.0, 2), (1.0 + 1e-13, 2)):
            want = np.diag(np.eye(3)[kept])
            assert np.array_equal(qm.post_state(inst, value, rho).matrix, want)
            assert np.array_equal(inst.apply(rho, value), want / 3)
        assert np.allclose(qm.post_state(inst, [0.0, 1e-12], rho).matrix, np.diag([0.5, 0.5, 0.0]))
        with pytest.raises(qm.ValidationError, match="not found"):
            inst.apply(rho, 0.5)

    def test_zero_dimensional_array_is_one_value(self):
        inst = qm.luders_instrument(np.diag([1.0, -1.0]))
        plus = qm.DensityOperator.pure(KET_PLUS)
        assert np.array_equal(qm.post_state(inst, np.array(1.0), plus).matrix, P0)
        assert np.array_equal(inst.apply(plus.matrix, np.array(-1.0)), inst.apply(plus.matrix, -1.0))

    @pytest.mark.parametrize("outcome_set", [np.nan, [np.nan], [1.0, np.nan]],
                             ids=["scalar", "list", "list-with-a-found-outcome"])
    def test_nan_outcome_is_not_found(self, outcome_set):
        # a NaN target is rejected where it enters, by _numbers
        inst = qm.luders_instrument(np.diag([1.0, -1.0]))
        plus = qm.DensityOperator.pure(KET_PLUS)
        with pytest.raises(qm.ValidationError, match="finite number"):
            qm.post_state(inst, outcome_set, plus)
        with pytest.raises(qm.ValidationError, match="finite number"):
            inst.apply(plus.matrix, outcome_set)


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
            # the other columns, in index order, are an orthonormal complement of
            # the Kraus columns, the same on every call and, to rounding, the
            # complement of the complete QR
            n = d * r
            complement = np.delete(u, np.s_[::r], axis=1)
            slack = 16 * n * np.finfo(float).eps
            gram = complement.conj().T @ complement - np.eye(n - d)
            assert np.abs(gram).max(initial=0.0) <= slack
            assert np.abs(u[:, ::r].conj().T @ complement).max(initial=0.0) <= slack
            assert np.array_equal(np.delete(qm.dilate(inst).unitary, np.s_[::r], axis=1), complement)
            reference = np.linalg.qr(u[:, ::r], mode="complete")[0][:, d:]
            assert np.abs(complement - reference).max(initial=0.0) <= 1e-13
            assert qm.operator_distance(u.conj().T @ u, np.eye(d * r)) <= 1e-12

    def test_qr_called_once_raw_on_the_isometry(self, monkeypatch):
        # the complement comes from the thin QR's reflectors, not from a complete QR
        inst = qm.random_cp_instrument(3, 2, qm.rng_from(216), max_kraus_per_outcome=3)
        r = sum(len(ops) for ops in inst.kraus)
        calls, qr = [], np.linalg.qr

        def recording_qr(a, mode="reduced"):
            calls.append((np.array(a), mode))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        u = qm.dilate(inst).unitary
        assert [(a.shape, mode) for a, mode in calls] == [((3 * r, 3), "raw")]
        assert np.array_equal(calls[0][0], u[:, ::r])

    def test_figures_of_dilation_equal_those_of_instrument(self):
        # every figure reads the labelled Kraus stack, the dilation's Kraus
        # columns; theorem2_check(inst) dilates inst for its strong face, so
        # both sides read the same complement there
        for seed in range(120):
            rng = qm.rng_from(217, seed)
            d = int(rng.integers(2, 6))
            a, b = qm.random_hermitian(d, rng), qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            for inst in (qm.random_cp_instrument(d, int(rng.integers(1, 5)), rng,
                                                 max_kraus_per_outcome=3),
                         qm.luders_instrument(a)):
                mp = qm.dilate(inst)
                assert qm.edr_ledger(mp, a, b, rho) == qm.edr_ledger(inst, a, b, rho)
                assert qm.theorem2_check(mp, a, rho) == qm.theorem2_check(inst, a, rho)

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


LEAKY_KRAUS = [[np.sqrt(0.5 * (1 + 5e-9)) * EYE2], [np.sqrt(0.5) * EYE2]]


class TestEveryInstrumentDilates:
    """An instrument the library accepts or builds, at any eq_tol, is realized
    by dilate: its effects sum to 1 within the slack of the dilation's
    unitarity check."""

    def test_leaky_instrument_rejected(self):
        # effects miss 1 by 2.5e-9, over the slack at the default eq_tol
        with pytest.raises(qm.ValidationError, match="sum to the identity"):
            qm.CPInstrument([0.0, 1.0], LEAKY_KRAUS)
        with pytest.raises(qm.ValidationError, match="sum to the identity"):
            qm.POVM([0.0, 1.0], [k[0].conj().T @ k[0] for k in LEAKY_KRAUS])

    @pytest.mark.parametrize("eq_tol", [1e-15, 1e-16, 1e-18, 1e-300])
    def test_random_instruments_dilate_below_rounding_level(self, eq_tol):
        tol = qm.Tolerances(eq_tol=eq_tol)
        eps = np.finfo(float).eps
        for seed in range(400):
            rng = qm.rng_from(seed)
            d, m, k = (int(rng.integers(lo, hi + 1)) for lo, hi in ((2, 8), (1, 6), (1, 6)))
            inst = qm.random_cp_instrument(d, m, rng, max_kraus_per_outcome=k, tol=tol)
            miss = qm.operator_distance(qm.povm_of(inst).effects.sum(axis=0), np.eye(d))
            assert miss <= 16 * d * m * eps
            qm.dilate(inst)

    @pytest.mark.parametrize("kraus", [
        [[P0], [P1]],
        [[P0, np.array([[0.0, 1.0], [0.0, 0.0]])]],
        [[EYE2], [], [np.zeros((2, 2))]],
        [[qm.haar_unitary(3, qm.rng_from(218))]],
    ], ids=["diagonal-luders", "reset", "zero-operator-and-empty-outcome", "unitary"])
    def test_edge_instruments_dilate_at_the_slack_floor(self, kraus):
        # at eq_tol 1e-300 the unitarity and read-back slack is 16 n eps
        tol = qm.Tolerances(eq_tol=1e-300)
        inst = qm.CPInstrument(range(len(kraus)), kraus, tol=tol)
        mp = qm.dilate(inst)
        n = mp.unitary.shape[0]
        back = qm.instrument_from_process(mp)
        assert qm.instrument_choi_distance(inst, back) <= 16 * n * np.finfo(float).eps

    def test_trivial_reflectors_give_exact_complements(self):
        # a Lüders instrument of a diagonal observable has a signed permutation
        # for its coupling; the reset instrument's Kraus columns are e_0 and e_1,
        # so every tau is 0 and the complement is the identity's other columns
        for a in (np.diag([-1.0, 0.5, 2.0]), np.diag([2.0, -1.0, 0.5, 0.5])):
            u = qm.dilate(qm.luders_instrument(a)).unitary
            assert np.array_equal(np.abs(u) ** 2, np.abs(u))
            assert np.array_equal(u.conj().T @ u, np.eye(len(u)))
        reset = qm.CPInstrument([0.0], [[P0, np.array([[0.0, 1.0], [0.0, 0.0]])]])
        u = qm.dilate(reset).unitary
        assert not np.linalg.qr(u[:, ::2], mode="raw")[1].any()
        assert np.array_equal(u[:, 1::2], np.eye(4)[:, 2:])

    @pytest.mark.parametrize("eq_tol", [1e-2, 3e-2, 1e-1])
    def test_perturbed_dilations_read_back_at_loose_tolerance(self, eq_tol):
        # a Lüders dilation kicked by exp(-itG), t of order sqrt(eq_tol): many
        # Kraus operators of weight near the slack, none of them negligible
        tol = qm.Tolerances(eq_tol=eq_tol)
        for seed in range(400):
            rng = qm.rng_from(5, seed)
            d = int(rng.integers(2, 5))
            mp0 = qm.dilate(qm.luders_instrument(qm.random_hermitian(d, rng), tol=tol))
            w, v = np.linalg.eigh(qm.random_hermitian(mp0.unitary.shape[0], rng).matrix)
            t = np.sqrt(eq_tol) * rng.uniform(0.3, 3.0)
            kick = (v * np.exp(-1j * t * w)) @ v.conj().T
            probe = qm.random_density_operator(mp0.probe_dim, rng, tol)
            mp = qm.MeasuringProcess(probe, mp0.unitary @ kick, mp0.meter, tol=tol)
            qm.dilate(qm.instrument_from_process(mp))


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

    def test_tolerance_mismatch_rejected(self):
        a = qm.luders_instrument(SZ)
        b = qm.luders_instrument(SZ, qm.Tolerances(eq_tol=1e-6))
        with pytest.raises(qm.ValidationError, match="different Tolerances"):
            qm.instrument_choi_distance(a, b)

    def test_round_trip_carries_the_tolerances(self):
        loose = qm.Tolerances(eq_tol=1e-6)
        mp = qm.dilate(qm.luders_instrument(SZ, loose))
        assert mp.tol == loose
        assert qm.instrument_from_process(mp).tol == loose


class TestRepeatability:
    def test_luders_is_repeatable(self):
        # r(a) = 0 exactly; summed over the spectrum of rho_a it reads zero to
        # rounding at every scale of A, not sqrt(machine eps) times the scale
        rng = qm.rng_from(208)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            for k in range(-6, 7):
                scaled = 10.0 ** k * a.matrix
                rep = qm.check_repeatability(qm.luders_instrument(scaled), scaled, rho, epsilon=0.0)
                assert rep.repeatable
                assert rep.worst_residual <= 1e-12 * np.abs(scaled).max() * d
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
        assert qm.check_repeatability(inst, SZ, rho, epsilon=np.float64(1.0)) == rep
        # epsilon is a number >= 0, numpy's included and a bool or NaN not
        for bad in (np.nan, -1.0, "1.0", None, True):
            with pytest.raises(qm.ValidationError, match="epsilon"):
                qm.check_repeatability(inst, SZ, rho, epsilon=bad)

    def test_nearby_outcomes_are_conditioned_on_separately(self):
        # outcomes 0 and 1e-12 lie within the outcome-match slack of each other,
        # yet each must be conditioned on by its own Kraus family
        inst = qm.CPInstrument([0.0, 1e-12, 1.0], [[np.diag(e)] for e in np.eye(3)])
        rep = qm.check_repeatability(inst, np.diag([0.0, 5.0, 1.0]), np.eye(3) / 3, epsilon=4.0)
        assert rep.outcomes == (0.0, 1e-12, 1.0)
        assert rep.residuals == pytest.approx((0.0, 5.0, 0.0))
        assert rep.post_std_devs == (0.0, 0.0, 0.0)
        assert not rep.repeatable

    def test_zero_probability_outcomes_skipped(self):
        inst = qm.luders_instrument(SZ)
        rho = qm.DensityOperator.pure(KET0)
        rep = qm.check_repeatability(inst, SZ, rho, epsilon=0.0)
        assert rep.repeatable
        assert rep.outcomes == (1.0,)
