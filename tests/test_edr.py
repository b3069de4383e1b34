import numpy as np
import pytest

import qmeasure as qm
from qmeasure import edr
from qmeasure.serialize import SchemaError
from qmeasure.sweep import MAX_DIM, TrialRecord
from helpers import (
    EYE2,
    KET0,
    KET_PLUS,
    KET_YPLUS,
    SX,
    SY,
    SZ,
    cnot_process,
    composite_cases,
    dilated_luders,
    disturbance_operator,
    identity_coupling_process,
    noise_operator,
    reference_cases,
    reference_cyclic_basis,
    reference_partial_trace,
    shifted_meter,
)

SQRT2 = float(np.sqrt(2.0))


def uncoupled_z_meter() -> qm.MeasuringProcess:
    """U = 1, probe |0>, meter sigma_z on the probe: reads pure noise."""
    return identity_coupling_process(SZ, qm.DensityOperator.pure(KET0))


class TestNoiseAndDisturbanceOperators:
    def test_noise_operator_form(self):
        mp = uncoupled_z_meter()
        expected = np.kron(EYE2, SZ) - np.kron(SX, EYE2)
        assert np.allclose(noise_operator(mp, SX), expected)

    def test_disturbance_vanishes_without_coupling(self):
        mp = uncoupled_z_meter()
        assert np.allclose(disturbance_operator(mp, SY), np.zeros((4, 4)))

    def test_cnot_leaves_control_undisturbed(self):
        mp = cnot_process()
        assert np.allclose(disturbance_operator(mp, SZ), np.zeros((4, 4)))
        for rho in (KET0, KET_PLUS, KET_YPLUS):
            assert qm.rms_disturbance(mp, SZ, qm.DensityOperator.pure(rho)) < 1e-12

    def test_commutator_identity_random(self):
        # [N, D] + [N, B(0)] + [A(0), D] = -[A, B] x 1 for every process
        for trial in range(100):
            rng = qm.rng_from(301, trial)
            d = int(rng.integers(2, 4))
            dk = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, dk, rng)
            a = qm.random_hermitian(d, rng).matrix
            b = qm.random_hermitian(d, rng).matrix
            n = noise_operator(mp, a)
            dd = disturbance_operator(mp, b)
            b0 = np.kron(b, np.eye(dk))
            a0 = np.kron(a, np.eye(dk))
            lhs = qm.commutator(n, dd) + qm.commutator(n, b0) + qm.commutator(a0, dd)
            rhs = -np.kron(qm.commutator(a, b), np.eye(dk))
            assert qm.operator_distance(lhs, rhs) < 1e-9


class TestMomentOperators:
    def test_mean_noise_frozen(self):
        # n(sigma_x) = 1 - sigma_x for the uncoupled z meter on |0>
        mp = uncoupled_z_meter()
        assert np.allclose(qm.mean_noise_operator(mp, SX), EYE2 - SX)
        assert np.allclose(qm.mean_disturbance_operator(mp, SY), np.zeros((2, 2)))

    def test_mean_operators_reproduce_traces(self):
        # Tr[n(A) rho] = Tr[N(A) (rho x rho0)] by construction
        for trial in range(50):
            rng = qm.rng_from(302, trial)
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng).matrix
            rho = qm.random_density_operator(d, rng)
            lhs = qm.expectation(qm.mean_noise_operator(mp, a), rho).real
            rhs = np.trace(noise_operator(mp, a) @ mp.composite_state(rho)).real
            assert abs(lhs - rhs) < 1e-10

    def test_noise_moment_gives_pure_state_error(self):
        # <phi| T |phi> = epsilon(A, phi)^2 and T is PSD
        for trial in range(50):
            rng = qm.rng_from(303, trial)
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng).matrix
            t = qm.noise_moment_operator(mp, a)
            assert float(np.linalg.eigvalsh(t).min()) > -1e-10
            phi = qm.random_pure_state(d, rng)
            lhs = qm.expectation(t, phi).real
            assert abs(lhs - qm.rms_error(mp, a, phi) ** 2) < 1e-10


    @pytest.mark.parametrize("mp, b, rho", [c[1:] for c in reference_cases()],
                             ids=[c[0] for c in reference_cases()])
    def test_disturbance_moment_operator(self, mp, b, rho):
        # T is PSD, <phi| T |phi> = eta(B, phi)^2, and the top eigenvalue of
        # T compressed to the cyclic subspace of (B, rho) is the locally
        # uniform eta squared, all within 1e-12 of the scale of T
        t = qm.disturbance_moment_operator(mp, b)
        w = np.linalg.eigvalsh(t)
        scale = float(np.abs(w).max())
        assert w.min() >= -1e-12 * scale
        phi = qm.random_pure_state(mp.system_dim, qm.rng_from(306, mp.system_dim))
        assert abs(qm.expectation(t, phi).real - qm.rms_disturbance(mp, b, phi) ** 2) <= 1e-12 * scale
        v = qm.cyclic_subspace(b, rho)
        top = np.linalg.eigvalsh(qm.hermitian_part(qm.dagger(v) @ t @ v)).max()
        assert abs(top - qm.locally_uniform_rms_disturbance(mp, b, rho) ** 2) <= 1e-12 * scale


def probe_average_cases():
    """(name, process, A, B): two processes with unequal dimensions both
    ways and a complex full-rank probe, so that a swapped system/probe
    index or a transposed rho0 shows, then the composite_cases."""
    cases = []
    for ds, dp in ((2, 3), (3, 2)):
        rng = qm.rng_from(310, ds)
        mp = qm.random_measuring_process(ds, dp, rng, pure_probe=False)
        rho0 = mp.probe_state.matrix
        assert np.linalg.matrix_rank(rho0) == dp and np.abs(rho0.imag).max() > 1e-2
        cases.append((f"{ds}-{dp}", mp, qm.random_hermitian(ds, rng), qm.random_hermitian(ds, rng)))
    return cases + [c[:4] for c in composite_cases()]


PROBE_AVERAGE_CASES = probe_average_cases()


class TestProbeAverage:
    @pytest.mark.parametrize("mp, a, b", [c[1:] for c in PROBE_AVERAGE_CASES],
                             ids=[c[0] for c in PROBE_AVERAGE_CASES])
    def test_matches_block_sum_reference(self, mp, a, b):
        # the mean and moment operators, computed from the process's Kraus
        # operators, against Tr_p[X (1 x rho0)] of the composite N(A), D(B)
        # and their squares by block sums, within 1e-12 of the scale of X
        ds, dp = mp.system_dim, mp.probe_dim
        lift = np.kron(np.eye(ds), mp.probe_state.matrix)
        noise, dist = noise_operator(mp, a), disturbance_operator(mp, b)
        for got, op in ((qm.mean_noise_operator(mp, a), noise),
                        (qm.noise_moment_operator(mp, a), noise @ noise),
                        (qm.mean_disturbance_operator(mp, b), dist),
                        (qm.disturbance_moment_operator(mp, b), dist @ dist)):
            want = qm.hermitian_part(reference_partial_trace([op @ lift], (ds, dp))[0])
            assert got.shape == (ds, ds)
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(op).max(), 1.0)


class TestScenarioReadOrder:
    def test_ledger_and_locally_uniform_share_one_pass(self, monkeypatch):
        # whichever is read first, the ledger and the locally uniform figures
        # give the same floats from one figure pass per observable
        passes = []
        real = edr._moments
        monkeypatch.setattr(edr, "_moments", lambda mp, x, s: passes.append(x) or real(mp, x, s))
        rng = qm.rng_from(311)
        mp = qm.random_measuring_process(3, 2, rng)
        a, b = qm.random_hermitian(3, rng), qm.random_hermitian(3, rng)
        rho = qm.random_density_operator(3, rng)
        results = []
        for ledger_first in (True, False):
            passes.clear()
            ctx = edr._Scenario(mp, a, b, rho)
            if ledger_first:
                report = ctx.ledger()
            lu = (ctx.locally_uniform("a"), ctx.locally_uniform("b"))
            if not ledger_first:
                report = ctx.ledger()
            assert sorted(passes) == ["a", "b"]
            results.append((report, lu))
        assert results[0] == results[1]


class TestLedgerFrozenExamples:
    def test_uncoupled_meter_breaks_nothing_but_heisenberg_form(self):
        # A = sigma_x read as pure noise, B = sigma_y untouched, rho = |0><0|
        mp = uncoupled_z_meter()
        rho = qm.DensityOperator.pure(KET0)
        r = qm.edr_ledger(mp, SX, SY, rho)
        assert r.epsilon == pytest.approx(SQRT2, abs=1e-9)
        assert r.eta == pytest.approx(0.0, abs=1e-12)
        assert r.sigma_a == pytest.approx(1.0, abs=1e-9)
        assert r.sigma_b == pytest.approx(1.0, abs=1e-9)
        assert r.robertson == pytest.approx(1.0, abs=1e-9)
        assert r.correlation_term == pytest.approx(2.0, abs=1e-9)
        assert r.heisenberg_product == pytest.approx(0.0, abs=1e-12)
        assert r.uedr_lhs == pytest.approx(2.0, abs=1e-9)
        assert r.oedr_lhs == pytest.approx(SQRT2, abs=1e-9)
        assert not r.heisenberg_holds
        assert r.uedr_holds
        assert r.oedr_holds

    def test_projective_z_measurement_on_plus(self):
        # exact measurement of sigma_z maximally disturbs sigma_x
        mp = dilated_luders(SZ)
        rho = qm.DensityOperator.pure(KET_PLUS)
        r = qm.edr_ledger(mp, SZ, SX, rho)
        assert r.epsilon < 1e-7
        assert r.eta == pytest.approx(SQRT2, abs=1e-9)
        assert r.sigma_a == pytest.approx(1.0, abs=1e-9)
        assert r.sigma_b < 1e-7
        assert r.robertson == pytest.approx(0.0, abs=1e-9)
        assert r.heisenberg_holds and r.uedr_holds and r.oedr_holds

    def test_projective_z_measurement_on_yplus(self):
        # same process, rho = |y+>: nonzero robertson met through sigma_a * eta
        mp = dilated_luders(SZ)
        rho = qm.DensityOperator.pure(KET_YPLUS)
        r = qm.edr_ledger(mp, SZ, SX, rho)
        assert r.epsilon < 1e-7
        assert r.eta == pytest.approx(SQRT2, abs=1e-9)
        assert r.robertson == pytest.approx(1.0, abs=1e-9)
        assert r.oedr_lhs == pytest.approx(SQRT2, abs=1e-7)
        assert not r.heisenberg_holds
        assert r.uedr_holds and r.oedr_holds


class TestNeutronSpinFamily:
    """Erhart et al., Nature Phys. 8, 185 (2012): A = sigma_x, B = sigma_y,
    psi = |+z>, a Lueders measurement of O_phi = cos(phi) sigma_x +
    sin(phi) sigma_y. Closed forms: epsilon = 2 sin(phi/2), eta =
    sqrt(2) |cos(phi)|, and Robertson's bound 1."""

    def test_closed_forms_and_flags(self):
        rho = qm.DensityOperator.pure(KET0)
        heisenberg_fails = 0
        for phi in np.linspace(0.0, np.pi, 181):
            r = qm.edr_ledger(qm.luders_instrument(np.cos(phi) * SX + np.sin(phi) * SY), SX, SY, rho)
            eps, eta = 2.0 * np.sin(phi / 2.0), SQRT2 * abs(np.cos(phi))
            assert abs(r.epsilon - eps) <= 1e-13 and abs(r.eta - eta) <= 1e-13
            assert abs(r.robertson - 1.0) <= 1e-13
            # the closed-form product is never within 8e-3 of the bound 1 on this grid
            assert r.heisenberg_holds == (eps * eta >= 1.0)
            assert r.uedr_holds and r.oedr_holds
            heisenberg_fails += not r.heisenberg_holds
        assert heisenberg_fails == 115


class TestCyclicSubspace:
    def test_full_space_when_projections_spread(self):
        v = qm.cyclic_subspace(SZ, qm.DensityOperator.pure(KET_PLUS))
        assert v.shape[1] == 2
        assert np.allclose(v @ qm.dagger(v), EYE2)

    def test_eigenstate_gives_one_dimension(self):
        v = qm.cyclic_subspace(SZ, qm.DensityOperator.pure(KET0))
        assert v.shape[1] == 1
        assert np.allclose(v @ qm.dagger(v), np.diag([1.0, 0.0]))

    def test_negligible_state_weight_excluded(self):
        rho = qm.DensityOperator(np.diag([1.0 - 1e-12, 1e-12]).astype(complex))
        v = qm.cyclic_subspace(SZ, rho)
        assert v.shape[1] == 1

    def test_identity_observable_spans_state_support(self):
        rho = qm.DensityOperator(np.diag([0.5, 0.5, 0.0]).astype(complex))
        v = qm.cyclic_subspace(np.eye(3, dtype=complex), rho)
        assert v.shape[1] == 2

    @pytest.mark.parametrize("a, rho", [c[2:] for c in reference_cases()],
                             ids=[c[0] for c in reference_cases()])
    def test_matches_double_loop_reference(self, a, rho):
        cols = reference_cyclic_basis(qm.spectral_decompose(a).projectors, rho)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        basis = u[:, :int(np.sum(s > 1e-8))]
        v = qm.cyclic_subspace(a, rho)
        # a read-only (d, k) array of orthonormal columns
        assert not v.flags.writeable
        assert v.shape == (len(rho.matrix), basis.shape[1])
        assert np.abs(qm.dagger(v) @ v - np.eye(v.shape[1])).max() <= 1e-12
        assert np.abs(v @ qm.dagger(v) - basis @ qm.dagger(basis)).max() <= 1e-12


class TestLocallyUniform:
    def test_meter_shift_gives_constant_error(self):
        # displacing the meter by c makes every state read off by c
        mp = shifted_meter(dilated_luders(SZ), 0.3)
        for vec in (KET0, KET_PLUS, KET_YPLUS):
            rho = qm.DensityOperator.pure(vec)
            assert qm.rms_error(mp, SZ, rho) == pytest.approx(0.3, abs=1e-9)
            assert qm.locally_uniform_rms_error(mp, SZ, rho) == pytest.approx(0.3, abs=1e-9)

    def test_dominates_plain_error(self):
        for trial in range(100):
            rng = qm.rng_from(304, trial)
            d = int(rng.integers(2, 4))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            assert (qm.locally_uniform_rms_error(mp, a, rho)
                    >= qm.rms_error(mp, a, rho) - 1e-8)

    def test_dominates_over_states_inside_subspace(self):
        # epsilon-bar bounds epsilon(rho') for any rho' carried by the
        # cyclic subspace of (A, rho)
        for trial in range(100):
            rng = qm.rng_from(305, trial)
            d = int(rng.integers(2, 5))
            mp = qm.random_measuring_process(d, int(rng.integers(2, 4)), rng)
            a = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            v = qm.cyclic_subspace(a, rho)
            bar = qm.locally_uniform_rms_error(mp, a, rho)
            w = qm.random_density_operator(v.shape[1], rng)
            inner = v @ w.matrix @ v.conj().T
            rho_prime = qm.DensityOperator(inner)
            assert bar >= qm.rms_error(mp, a, rho_prime) - 1e-8

    def test_disturbance_variant(self):
        mp = dilated_luders(SZ)
        rho = qm.DensityOperator.pure(KET_PLUS)
        bar = qm.locally_uniform_rms_disturbance(mp, SX, rho)
        assert bar >= qm.rms_disturbance(mp, SX, rho) - 1e-9
        assert bar == pytest.approx(SQRT2, abs=1e-7)


class TestUniversality:
    def test_mini_sweep_haar(self):
        census, records = qm.run_sweep(dims=(2, 4), trials=150, seed=7,
                                       interaction="haar", collect=True)
        assert census.trials == 150
        assert census.uedr_failures == 0
        assert census.oedr_failures == 0
        assert census.lu_oedr_failures == 0
        assert census.theorem2_disagreements == 0
        assert census.all_universal_hold
        assert len(records) == 150

    def test_identity_sweep_breaks_heisenberg_form(self):
        # eta = 0 exactly, so the bare product epsilon*eta drops to zero
        # while the robertson bound is generically positive
        census, _ = qm.run_sweep(dims=(2, 4), trials=60, seed=11, interaction="identity")
        assert census.heisenberg_violations > 0
        assert census.all_universal_hold

    def test_sweep_argument_validation(self):
        with pytest.raises(qm.ValidationError):
            qm.run_sweep(dims=(1, 4), trials=5, seed=0)
        with pytest.raises(qm.ValidationError):
            qm.run_sweep(dims=(2, 4), trials=0, seed=0)
        with pytest.raises(qm.ValidationError):
            qm.run_sweep(dims=(2, MAX_DIM + 1), trials=1, seed=0)

    @pytest.mark.parametrize("bad", [{"trials": 2.5}, {"seed": 1.7}, {"trials": True},
                                     {"seed": False}, {"dims": (2.5, 3)}, {"dims": (2, True)},
                                     {"trials": "2"}, {"seed": None}, {"trials": float("nan")},
                                     {"interaction": "nope"}, {"dims": 5}, {"dims": None},
                                     {"dims": (2,)}, {"dims": (2, 3, 4)}])
    def test_sweep_rejects_before_the_first_trial(self, bad, monkeypatch):
        streams = []
        monkeypatch.setattr("qmeasure.sweep.rng_from", lambda *args: streams.append(args))
        with pytest.raises(qm.ValidationError):
            qm.run_sweep(**{"dims": (2, 3), "trials": 2, "seed": 1, **bad})
        assert streams == []

    def test_sweep_accepts_integral_floats(self):
        census, _ = qm.run_sweep(dims=(2.0, 3.0), trials=2.0, seed=1.0)
        assert census == qm.run_sweep(dims=(2, 3), trials=2, seed=1)[0]
        assert census.trials == 2 and type(census.trials) is int
        assert qm.run_sweep(dims=(np.int64(2), 3), trials=np.int64(2), seed=1)[0] == census
        assert qm.run_sweep(dims=np.array([2, 3]), trials=2, seed=1)[0] == census

    def test_sweep_type_faults_are_schema_errors(self):
        # run_sweep checks through the config schema helpers, so a value of
        # the wrong type raises SchemaError, a ValidationError
        assert issubclass(SchemaError, qm.ValidationError)
        with pytest.raises(SchemaError):
            qm.run_sweep(dims=[True, 2], trials=2, seed=1)

    def test_unknown_interaction_is_a_validation_error(self):
        with pytest.raises(qm.ValidationError):
            qm.random_measuring_process(2, 2, qm.rng_from(0), interaction="nope")

    @pytest.mark.parametrize("dims, trials", [((2, 4), 40), ((5, 6), 6)])
    def test_records_equal_public_calls_on_fresh_processes(self, dims, trials):
        # run_sweep shares one scenario context per trial; the public
        # functions, each on a process of its own, must give the same bits
        _, records = qm.run_sweep(dims=dims, trials=trials, seed=3, collect=True)
        for rec in records:
            rng = qm.rng_from(3, rec.trial)
            ds, dp = int(rng.integers(dims[0], dims[1] + 1)), int(rng.integers(dims[0], dims[1] + 1))
            a, b = qm.random_hermitian(ds, rng), qm.random_hermitian(ds, rng)
            rho = (qm.random_pure_state(ds, rng) if rng.integers(0, 2)
                   else qm.random_density_operator(ds, rng))
            mp = qm.random_measuring_process(ds, dp, rng)

            def fresh():
                return qm.MeasuringProcess(mp.probe_state, mp.unitary, mp.meter)

            report = qm.edr_ledger(fresh(), a, b, rho)
            lu_eps = qm.locally_uniform_rms_error(fresh(), a, rho)
            lu_eta = qm.locally_uniform_rms_disturbance(fresh(), b, rho)
            lu_lhs = lu_eps * lu_eta + lu_eps * report.sigma_b + report.sigma_a * lu_eta
            # every flag allows eq_tol times ||A|| ||B||, max-abs norms
            slack = qm.DEFAULT_TOL.eq_tol * float(np.abs(a.matrix).max() * np.abs(b.matrix).max())
            assert rec == TrialRecord(
                trial=rec.trial, system_dim=ds, probe_dim=dp, report=report,
                lu_epsilon=lu_eps, lu_eta=lu_eta, lu_oedr_lhs=lu_lhs,
                lu_oedr_holds=bool(lu_lhs >= report.robertson - slack),
                precision=qm.theorem2_check(fresh(), a, rho))

    def test_sweep_is_reproducible(self):
        c1, _ = qm.run_sweep(dims=(2, 3), trials=30, seed=13)
        c2, _ = qm.run_sweep(dims=(2, 3), trials=30, seed=13)
        assert c1 == c2
