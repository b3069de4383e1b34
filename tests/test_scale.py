"""Flags at every scale: a quantity with the units of an observable counts
as zero within eq_tol times its own scale, so no flag, cluster or outcome
match depends on the units of A, B, the meter or hbar; and at every eq_tol,
since no check asks for less than the rounding of its sums."""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure as qm
from qmeasure.cli import EXIT_OK, main
from qmeasure.serialize import matrix_to_json
from helpers import EYE2, KET0, KET_PLUS, SX, SY, SZ

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

EXPONENTS = st.integers(min_value=-8, max_value=8)


def no_interaction_process() -> qm.MeasuringProcess:
    """U = 1 on two qubits, meter 0, probe |0>: the process does nothing."""
    return qm.MeasuringProcess(qm.DensityOperator.pure(KET0), np.eye(4), np.zeros((2, 2)))


def finite_instance(kind: str, seed: int):
    """(process, A, B, rho) at scale 1: a Haar process, the dilation of a
    Lüders instrument with A its observable, or the no-interaction process."""
    rng = qm.rng_from(seed)
    if kind == "none":
        return no_interaction_process(), SX, SY, qm.DensityOperator.pure(KET0)
    ds = int(rng.integers(2, 4))
    a, b = qm.random_hermitian(ds, rng).matrix, qm.random_hermitian(ds, rng).matrix
    rho = qm.random_density_operator(ds, rng)
    if kind == "haar":
        return qm.random_measuring_process(ds, 2, rng), a, b, rho
    return qm.dilate(qm.luders_instrument(a)), a, b, rho


def flags(mp, a, b, rho):
    rep = qm.edr_ledger(mp, a, b, rho)
    return ((rep.heisenberg_holds, rep.uedr_holds, rep.oedr_holds)
            + qm.theorem2_check(mp, a, rho).flags())


class TestScaleInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["haar", "luders", "none"]), seed=st.integers(0, 2 ** 16),
           s_exp=EXPONENTS, t_exp=EXPONENTS)
    def test_finite_flags(self, kind, seed, s_exp, t_exp):
        # (A, meter) -> (sA, s meter), B -> tB
        s, t = 10.0 ** s_exp, 10.0 ** t_exp
        mp, a, b, rho = finite_instance(kind, seed)
        scaled = qm.MeasuringProcess(mp.probe_state, mp.unitary, s * mp.meter.matrix)
        assert flags(scaled, s * a, t * b, rho) == flags(mp, a, b, rho)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=st.sampled_from([qm.VON_NEUMANN, qm.OZAWA_1988]),
           packets=st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 10),
                                      st.floats(-1, 1), st.sampled_from([1.0, 1.5])),
                            min_size=2, max_size=2),
           s_exp=EXPONENTS, t_exp=EXPONENTS)
    def test_gaussian_flags(self, model, packets, s_exp, t_exp):
        # x -> s x, p -> t p, hbar -> s t hbar; every packet sits at or above
        # the uncertainty bound, most of them exactly on it
        s, t = 10.0 ** s_exp, 10.0 ** t_exp

        def run(sx, tp):
            constants = qm.PhysicalConstants(hbar=sx * tp)
            states = []
            for q, p, a, c, excess in packets:
                cov = excess / 2.0 * np.array([[a, c], [c, (1.0 + c * c) / a]])
                states.append(qm.GaussianState([sx * q, tp * p], np.outer([sx, tp], [sx, tp]) * cov,
                                               constants=constants))
            return qm.model_edr(qm.build_model(model), *states).heisenberg_violated

        assert run(s, t) == run(1.0, 1.0)


class TestRegressions:
    """Cases an absolute slack decided wrongly, and the rounding floor of
    the relative slack."""

    @pytest.mark.parametrize("s", [1.0, 1e-5, 1e-8])
    def test_no_interaction_breaks_heisenberg_at_every_scale(self, s):
        # product 0, bound s^2
        rep = qm.edr_ledger(no_interaction_process(), s * SX, s * SY, qm.DensityOperator.pure(KET0))
        assert rep.heisenberg_product == 0.0 and rep.robertson == pytest.approx(s * s)
        assert not rep.heisenberg_holds

    def test_small_eigenvalues_stay_distinct(self):
        assert len(qm.spectral_decompose(1e-10 * SZ).eigenvalues) == 2

    def test_tolerance_below_rounding_level(self):
        # the reconstruction check allows d slacks of d terms, never less than 16 d^2 eps
        a = qm.random_hermitian(12, qm.rng_from(7))
        dec = qm.spectral_decompose(a, qm.Tolerances(eq_tol=1e-19))
        assert len(dec.eigenvalues) == 12

    def test_outcome_selection_at_small_scale(self):
        post = qm.post_state(qm.luders_instrument(1e-10 * SZ), 1e-10, qm.DensityOperator.pure(KET_PLUS))
        assert np.allclose(post.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_repeatability_at_small_scale(self):
        # residuals sqrt(2) * 1e-10 against epsilon 0
        rep = qm.check_repeatability(qm.luders_instrument(1e-10 * SX), 1e-10 * SZ, EYE2 / 2, 0.0)
        assert rep.worst_residual == pytest.approx(np.sqrt(2.0) * 1e-10)
        assert not rep.repeatable

    @pytest.mark.parametrize("s", [1e-5, 1e-10])
    def test_precision_at_small_scale(self, s):
        mp = qm.dilate(qm.luders_instrument(s * SX))
        rep = qm.theorem2_check(mp, s * SZ, qm.DensityOperator.pure(KET_PLUS))
        assert rep.flags() == (False, False, False, False)

    def test_rotated_observable_accepted_at_every_scale(self):
        # U D U+ is Hermitian up to the rounding of its own entries, which an
        # absolute eq_tol rejects at 1e8
        rng = qm.rng_from(13)
        for k in range(-8, 9):
            for _ in range(5):
                u = qm.haar_unitary(3, rng)
                m = 10.0 ** k * (u * rng.uniform(1.0, 2.0, 3)) @ u.conj().T
                qm.HermitianObservable(m)

    def test_asymmetric_observable_rejected_at_every_scale(self):
        # an asymmetry of 1e-3 relative, which an absolute eq_tol misses at 1e-8
        for k in range(-8, 9):
            m = 10.0 ** k * np.array([[0.0, 1.0], [1.001, 0.0]])
            with pytest.raises(qm.ValidationError, match="Hermitian"):
                qm.HermitianObservable(m)

    def test_cli_accepts_rotated_observable_at_large_scale(self, tmp_path):
        with open(os.path.join(CONFIG_DIR, "finite_luders.json")) as fh:
            cfg = json.load(fh)
        u = qm.haar_unitary(2, qm.rng_from(14))
        cfg["payload"]["observable_a"] = matrix_to_json(1e8 * (u * [1.0, 2.0]) @ u.conj().T)
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("eq_tol", ["1e-15", "1e-16", "1e-18"])
    def test_cli_runs_below_rounding_level(self, eq_tol, tmp_path):
        # unitarity, a state's trace and the sweep's Haar unitaries are checked
        # no tighter than the rounding of their sums
        for name in sorted(os.listdir(CONFIG_DIR)):
            argv = ["run", os.path.join(CONFIG_DIR, name), "--out", str(tmp_path / name)]
            assert main(argv + ["--tol", eq_tol]) == EXIT_OK
        assert main(["sweep", "--dims", "2..3", "--trials", "5", "--seed", "0",
                     "--out", str(tmp_path / "sweep"), "--tol", eq_tol]) == EXIT_OK

    @pytest.mark.parametrize("eq_tol", [1e-15, 1e-18])
    def test_luders_dilation_precise_below_rounding_level(self, eq_tol):
        tol = qm.Tolerances(eq_tol=eq_tol)
        for seed in range(20):
            rng = qm.rng_from(seed)
            d = 2 + seed % 4
            a = qm.random_hermitian(d, rng, tol=tol)
            rho = qm.random_density_operator(d, rng, tol=tol)
            mp = qm.dilate(qm.luders_instrument(a, tol))
            assert qm.theorem2_check(mp, a, rho).flags() == (True,) * 4
            assert qm.is_nondisturbing(mp, a, rho)

    def test_full_rank_dilation_at_n_512_below_rounding_level(self):
        # a d = 8 process with a mixed probe reads back 64 Kraus operators, so
        # the dilation has n = 512; at eq_tol 1e-300 every slack is 16 n eps
        tol = qm.Tolerances(eq_tol=1e-300)
        mp = qm.random_measuring_process(8, 8, qm.rng_from(512), pure_probe=False, tol=tol)
        inst = qm.instrument_from_process(mp)
        assert sum(len(ops) for ops in inst.kraus) == 64
        dil = qm.dilate(inst)
        assert dil.unitary.shape == (512, 512)
        back = qm.instrument_from_process(dil)
        assert qm.instrument_choi_distance(inst, back) <= 16 * 512 * np.finfo(float).eps

    def test_tol_reaches_reproducibility_face(self):
        # a Lüders dilation of diag(0, 1) perturbed by exp(-itG), t = 1e-11:
        # precise at the default eq_tol, neither strong precise nor
        # probability reproducible on the cyclic subspace at 1e-13
        a = np.diag([0.0, 1.0])
        w, v = np.linalg.eigh(qm.random_hermitian(4, qm.rng_from(3)).matrix)
        kick = (v * np.exp(-1e-11j * w)) @ v.conj().T

        def report(eq_tol):
            tol = qm.Tolerances(eq_tol=eq_tol)
            mp = qm.dilate(qm.luders_instrument(a, tol))
            mp = qm.MeasuringProcess(mp.probe_state, mp.unitary @ kick, mp.meter, tol=tol)
            return qm.theorem2_check(mp, a, qm.DensityOperator(EYE2 / 2, tol)).flags()

        assert report(1e-9) == (True, True, True, True)
        assert report(1e-13) == (False, True, True, False)

    def test_pure_normalizes_at_every_scale(self):
        for k in range(-300, 301):
            rho = qm.DensityOperator.pure([10.0 ** k, 10.0 ** k])
            assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [np.inf, 0.0], [np.nan, 1.0]])
    def test_pure_rejects_zero_or_non_finite_vector(self, vector):
        # a non-finite entry is rejected as the vector enters, a zero vector when normalized
        message = "entries must be finite" if not np.isfinite(vector).all() else "zero vector"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qm.ValidationError, match=message):
                qm.DensityOperator.pure(vector)

    def test_gaussian_zero_covariance_rejected_at_small_hbar(self):
        with pytest.raises(qm.ValidationError, match="uncertainty bound"):
            qm.GaussianState([0.0, 0.0], np.zeros((2, 2)), constants=qm.PhysicalConstants(hbar=1e-5))

    def test_gaussian_rotated_squeezed_accepted_at_large_hbar(self):
        # cov symmetric up to rounding of its own entries, on the bound
        hbar = 1e8
        constants = qm.PhysicalConstants(hbar=hbar)
        for theta in np.linspace(0.0, np.pi, 60):
            r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            cov = (r @ np.diag([9 * hbar / 2, hbar / 18])) @ r.T
            qm.GaussianState([0.0, 0.0], cov, constants=constants)

    def test_gaussian_negative_covariance_rejected_at_small_hbar(self):
        # det(-1e-12 I) meets the bound (hbar/2)^2; the state has sqrt(cov_qq) = NaN
        with pytest.raises(qm.ValidationError, match="positive"):
            qm.GaussianState([0.0, 0.0], -1e-12 * np.eye(2),
                             constants=qm.PhysicalConstants(hbar=1e-12))

    def test_gaussian_asymmetric_covariance_rejected_at_small_hbar(self):
        with pytest.raises(qm.ValidationError, match="symmetric"):
            qm.GaussianState([0.0, 0.0], [[1e-12, 5e-13], [0.0, 1e-12]],
                             constants=qm.PhysicalConstants(hbar=1e-12))

    def test_gaussian_min_uncertainty_accepted_at_large_hbar(self):
        constants = qm.PhysicalConstants(hbar=1e15)
        for q1 in (0.3, 1.0, 7.0, 1e8):
            packet = qm.min_uncertainty_packet(0.0, 0.0, q1, constants=constants)
            assert np.sqrt(packet.cov[0, 0]) * np.sqrt(packet.cov[1, 1]) == pytest.approx(5e14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_gaussian_far_above_the_bound_accepted(self, scale):
        # det(cov) / (hbar/2)^2 = 4 scale^2 is beyond the float range
        cov = scale * np.eye(2)
        assert qm.GaussianState([0.0, 0.0], cov).cov[1, 1] == scale

    @pytest.mark.parametrize("model", ["von_neumann", "ozawa_1988"])
    def test_cli_gaussian_far_above_the_bound(self, tmp_path, model):
        # an object of covariance 1e160 * 1, whose det(cov) overflows
        with open(os.path.join(CONFIG_DIR, "gaussian_vn.json")) as fh:
            cfg = json.load(fh)
        cfg["payload"].update(model=model, object={"mean": [0.0, 0.0],
                                                   "cov": [[1e160, 0.0], [0.0, 1e160]]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_gaussian_admissible_exactly_on_the_bound_at_every_hbar(self, hbar, k):
        # cov = k (hbar/2) 1 meets det(cov) >= (hbar/2)^2 exactly when k >= 1;
        # (hbar/2)^2 underflows at 1e-200 and overflows at 1e200
        constants = qm.PhysicalConstants(hbar=hbar)
        cov = k * hbar / 2.0 * np.eye(2)
        if k >= 1.0:
            assert qm.GaussianState([0.0, 0.0], cov, constants=constants).cov[0, 0] == cov[0, 0]
        else:
            with pytest.raises(qm.ValidationError, match="uncertainty bound"):
                qm.GaussianState([0.0, 0.0], cov, constants=constants)

    @pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
    def test_von_neumann_saturates_at_every_hbar(self, hbar):
        # packets of width q1 = sqrt(hbar): eps eta = hbar/2 with hbar^2 out of range
        constants = qm.PhysicalConstants(hbar=hbar)
        obj, probe = (qm.min_uncertainty_packet(0.0, 0.0, np.sqrt(hbar), constants=constants)
                      for _ in range(2))
        r = qm.model_edr(qm.build_model(qm.VON_NEUMANN), obj, probe)
        assert abs(r.product / (hbar / 2.0) - 1.0) <= 1e-12
        assert not r.heisenberg_violated

    def test_unrepresentable_packet_rejected(self):
        # momentum variance hbar^2 / (2 q1^2) = 3.5e-401 is not a float
        with pytest.raises(qm.ValidationError, match="uncertainty bound"):
            qm.min_uncertainty_packet(0.0, 0.0, 1.2, constants=qm.PhysicalConstants(hbar=1e-200))

    @pytest.mark.parametrize("q1, hbar", [(1e-100, 1e-200), (1e100, 1e200)])
    def test_cli_von_neumann_saturates_at_extreme_hbar(self, tmp_path, q1, hbar):
        with open(os.path.join(CONFIG_DIR, "gaussian_vn.json")) as fh:
            cfg = json.load(fh)
        for part in ("object", "probe"):
            cfg["payload"][part]["packet"]["q1"] = q1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        assert main(["run", str(path), "--out", out, "--hbar", repr(hbar)]) == EXIT_OK
        with open(os.path.join(out, "report.json")) as fh:
            results = json.load(fh)["results"]
        assert results["heisenberg_violated"] is False
        assert abs(results["product"] / results["hbar_over_2"] - 1.0) <= 1e-12

    def test_cli_ozawa_violates_at_small_hbar(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["run", os.path.join(CONFIG_DIR, "gaussian_1988.json"), "--out", out,
                   "--hbar", "1e-12"])
        assert rc == EXIT_OK
        with open(os.path.join(out, "report.json")) as fh:
            assert json.load(fh)["results"]["heisenberg_violated"] is True
