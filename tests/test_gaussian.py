import numpy as np
import pytest

import qmeasure as qm
from qmeasure.gaussian import _joint_moments

HBAR2 = qm.PhysicalConstants(hbar=2.0)

# symplectic form on (x, p_x, y, p_y), for invariance checks
J4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


def random_admissible_state(rng, constants=qm.DEFAULT_CONSTANTS) -> qm.GaussianState:
    """Squeezed, rotated, impure Gaussian state with random means."""
    h2 = constants.hbar / 2.0
    s = float(np.exp(rng.uniform(-1.0, 1.0)))
    r = float(np.exp(rng.uniform(0.0, 0.7)))  # purity factor >= 1
    th = float(rng.uniform(0.0, np.pi))
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    cov = r * h2 * rot @ np.diag([s, 1.0 / s]) @ rot.T
    mean = rng.normal(scale=1.5, size=2)
    return qm.GaussianState(mean, cov, constants=constants)


class TestGaussianState:
    @pytest.mark.parametrize("name", ["mean", "cov", "constants", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        st = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        with pytest.raises(AttributeError):
            setattr(st, name, [[0.01, 0.0], [0.0, 0.01]])
        with pytest.raises(AttributeError):
            delattr(st, name)

    def test_state_does_not_alias_its_inputs(self):
        mean, cov = np.array([0.5, -0.25]), np.array([[1.0, 0.2], [0.2, 1.0]])
        st = qm.GaussianState(mean, cov)
        mean[0], cov[0, 0] = 99.0, 7.0
        assert (st.mean_q, st.mean[1], st.cov[0, 0]) == (0.5, -0.25, 1.0)
        assert not np.shares_memory(st.mean, mean) and not np.shares_memory(st.cov, cov)

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(qm.ValidationError):
            qm.GaussianState((0, 0), [[1.0, 0.3], [0.1, 1.0]])

    def test_rejects_negative_cov(self):
        with pytest.raises(qm.ValidationError):
            qm.GaussianState((0, 0), [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_sub_uncertainty_cov(self):
        with pytest.raises(qm.ValidationError):
            qm.GaussianState((0, 0), [[0.1, 0.0], [0.0, 0.1]])

    def test_admissibility_scales_with_hbar(self):
        qm.GaussianState((0, 0), [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(qm.ValidationError):
            qm.GaussianState((0, 0), [[0.5, 0.0], [0.0, 0.5]], constants=HBAR2)

    def test_properties(self):
        st = qm.GaussianState((1.0, -2.0), [[4.0, 0.0], [0.0, 9.0]])
        assert st.mean_q == 1.0
        assert st.mean[1] == -2.0
        assert st.sigma_q == pytest.approx(2.0)
        assert st.sigma_p == pytest.approx(3.0)


class TestMinUncertaintyPacket:
    def test_frozen_variances(self):
        st = qm.min_uncertainty_packet(0.5, -1.5, 2.0)
        assert st.cov[0, 0] == pytest.approx(2.0)       # q1^2 / 2
        assert st.cov[1, 1] == pytest.approx(0.125)     # hbar^2 / (2 q1^2)
        assert st.cov[0, 1] == 0.0
        assert st.mean_q == 0.5 and st.mean[1] == -1.5

    def test_kennard_saturation(self):
        rng = qm.rng_from(501)
        for _ in range(100):
            q1 = float(np.exp(rng.uniform(-2, 2)))
            st = qm.min_uncertainty_packet(rng.normal(), rng.normal(), q1)
            assert st.sigma_q * st.sigma_p == pytest.approx(0.5, abs=1e-12)

    def test_saturation_with_other_hbar(self):
        st = qm.min_uncertainty_packet(0.0, 0.0, 1.3, constants=HBAR2)
        assert st.sigma_q * st.sigma_p == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_width(self):
        with pytest.raises(qm.ValidationError):
            qm.min_uncertainty_packet(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("q1", [1e-170, 1e-200])
    def test_rejects_width_whose_square_underflows(self, q1):
        # q1 * q1 rounds to 0, a packet of zero position variance
        with pytest.raises(qm.ValidationError, match="position variance"):
            qm.min_uncertainty_packet(0.0, 0.0, q1)


class TestModels:
    def test_known_ids(self):
        assert qm.build_model(qm.VON_NEUMANN).model_id == "von_neumann"
        assert qm.build_model(qm.OZAWA_1988).model_id == "ozawa_1988"
        with pytest.raises(qm.ValidationError):
            qm.build_model("other")

    def test_symplectic_form_exact(self):
        for mid in (qm.VON_NEUMANN, qm.OZAWA_1988):
            s = qm.build_model(mid).symplectic
            assert np.array_equal(s @ J4 @ s.T, J4)

    def test_rejects_non_symplectic(self):
        for s in (np.eye(4) * 2.0, np.diag([2.0, 1.0, 1.0, 1.0]), np.full((4, 4), np.nan),
                  np.eye(3), np.eye(4) * 1j, np.eye(4) + 0j, np.diag([1.0, 1.0, 1.0, np.inf]),
                  [["a"] * 4] * 4):
            with pytest.raises(qm.ValidationError):
                qm.LinearModel("broken", s)
        # a list is taken as its array, an integer matrix as its float copy
        for s in (np.eye(4).tolist(), np.eye(4, dtype=int)):
            model = qm.LinearModel("identity", s)
            assert model.symplectic.dtype == float and not model.symplectic.flags.writeable
            assert np.array_equal(model.symplectic, np.eye(4))

    def test_accepts_symplectic_with_rounding_residual(self):
        # a beam splitter: S J S^T misses J by rounding, about 1e-16
        c, s = np.cos(0.3), np.sin(0.3)
        bs = np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, s], [-s, 0.0, c, 0.0], [0.0, -s, 0.0, c]])
        assert not np.array_equal(bs @ J4 @ bs.T, J4)
        model = qm.LinearModel("beam_splitter", bs)
        # a read-only copy: the caller's array stays writable
        assert np.array_equal(model.symplectic, bs) and model.symplectic is not bs
        assert bs.flags.writeable and not model.symplectic.flags.writeable

    def test_von_neumann_action(self):
        s = qm.build_model(qm.VON_NEUMANN).symplectic
        # x'=x, p_x'=p_x-p_y, y'=x+y, p_y'=p_y
        assert np.array_equal(s @ np.array([1.0, 2.0, 3.0, 4.0]),
                              np.array([1.0, -2.0, 4.0, 4.0]))

    def test_ozawa_action(self):
        s = qm.build_model(qm.OZAWA_1988).symplectic
        # x'=x-y, p_x'=-p_y, y'=x, p_y'=p_x+p_y
        assert np.array_equal(s @ np.array([1.0, 2.0, 3.0, 4.0]),
                              np.array([-2.0, -4.0, 1.0, 6.0]))


class TestPropagate:
    def test_joint_moments_block_structure(self):
        obj = qm.min_uncertainty_packet(1.0, 2.0, 1.0)
        probe = qm.min_uncertainty_packet(-1.0, 0.5, 2.0)
        mean, cov = _joint_moments(obj, probe)
        assert np.array_equal(mean, [1.0, 2.0, -1.0, 0.5])
        assert np.array_equal(cov[:2, :2], obj.cov)
        assert np.array_equal(cov[2:, 2:], probe.cov)
        assert np.all(cov[:2, 2:] == 0.0)

    def test_validation(self):
        model = qm.build_model(qm.VON_NEUMANN)
        with pytest.raises(qm.ValidationError):
            qm.propagate(model, [0.0, 0.0, 0.0], np.eye(4))
        with pytest.raises(qm.ValidationError):
            qm.propagate(model, np.zeros(4), np.eye(3))
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(qm.ValidationError):
            qm.propagate(model, np.zeros(4), bad)
        # the joint moments must be finite, the mean as well as the covariance
        for mean, cov in (([np.nan] * 4, np.eye(4)), (np.zeros(4), np.full((4, 4), np.nan)),
                          (np.zeros(4), np.diag([1.0, 1.0, 1.0, np.inf]))):
            with pytest.raises(qm.ValidationError, match="finite"):
                qm.propagate(model, mean, cov)

    def test_preserves_uncertainty_admissibility(self):
        # S(V + i hbar/2 J)S^T is a congruence, so positivity survives
        rng = qm.rng_from(502)
        for mid in (qm.VON_NEUMANN, qm.OZAWA_1988):
            model = qm.build_model(mid)
            for _ in range(50):
                obj = random_admissible_state(rng)
                probe = random_admissible_state(rng)
                mean, cov = _joint_moments(obj, probe)
                _, out = qm.propagate(model, mean, cov)
                form = out + 0.5j * J4
                assert float(np.linalg.eigvalsh(form).min()) > -1e-10
                assert np.linalg.det(out) == pytest.approx(np.linalg.det(cov), rel=1e-9)


class TestModelEDR:
    def test_von_neumann_balanced_frozen(self):
        obj = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        r = qm.model_edr(qm.build_model(qm.VON_NEUMANN), obj, probe)
        assert r.epsilon == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert r.eta == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert r.product == pytest.approx(0.5, abs=1e-12)
        assert r.kennard_bound == 0.5
        assert not r.heisenberg_violated

    def test_von_neumann_general_probe(self):
        obj = qm.min_uncertainty_packet(0.4, -0.1, 1.7)
        probe = qm.GaussianState((0.1, -0.3), [[0.7, 0.1], [0.1, 0.5]])
        r = qm.model_edr(qm.build_model(qm.VON_NEUMANN), obj, probe)
        # eps^2 = Vyy + my^2, eta^2 = Vpp + mpy^2, probe moments only
        assert r.epsilon == pytest.approx(np.sqrt(0.71), abs=1e-12)
        assert r.eta == pytest.approx(np.sqrt(0.59), abs=1e-12)

    def test_von_neumann_bound_random(self):
        rng = qm.rng_from(503)
        model = qm.build_model(qm.VON_NEUMANN)
        for _ in range(100):
            obj = random_admissible_state(rng)
            probe = random_admissible_state(rng)
            r = qm.model_edr(model, obj, probe)
            assert r.product >= 0.5 - 1e-12
            assert not r.heisenberg_violated

    def test_von_neumann_saturates_on_min_packets(self):
        rng = qm.rng_from(504)
        model = qm.build_model(qm.VON_NEUMANN)
        for _ in range(100):
            obj = random_admissible_state(rng)
            probe = qm.min_uncertainty_packet(0.0, 0.0, float(np.exp(rng.uniform(-1, 1))))
            r = qm.model_edr(model, obj, probe)
            assert r.product == pytest.approx(0.5, abs=1e-10)

    def test_ozawa_zero_error_exact(self):
        obj = qm.GaussianState((0.3, -0.2), [[0.5, 0.0], [0.0, 0.5]])
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        r = qm.model_edr(qm.build_model(qm.OZAWA_1988), obj, probe)
        assert r.epsilon == 0.0
        assert r.product == 0.0
        assert r.eta == pytest.approx(np.sqrt(1.04), abs=1e-12)
        assert r.heisenberg_violated

    def test_ozawa_violates_for_all_inputs(self):
        rng = qm.rng_from(505)
        model = qm.build_model(qm.OZAWA_1988)
        for _ in range(100):
            r = qm.model_edr(model, random_admissible_state(rng), random_admissible_state(rng))
            assert r.epsilon == 0.0
            assert r.heisenberg_violated

    def test_ozawa_disturbance_bound(self):
        # zero error forces sigma(x) * eta >= hbar/2: the slack moves into
        # the spread of the object position
        rng = qm.rng_from(506)
        model = qm.build_model(qm.OZAWA_1988)
        for _ in range(100):
            obj = random_admissible_state(rng)
            probe = random_admissible_state(rng)
            r = qm.model_edr(model, obj, probe)
            assert obj.sigma_q * r.eta >= 0.5 - 1e-10

    def test_hbar_rescales_bound(self):
        obj = qm.min_uncertainty_packet(0.0, 0.0, 1.0, constants=HBAR2)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0, constants=HBAR2)
        r = qm.model_edr(qm.build_model(qm.VON_NEUMANN), obj, probe)
        assert r.kennard_bound == 1.0
        assert r.product == pytest.approx(1.0, abs=1e-12)
        assert not r.heisenberg_violated

    @pytest.mark.parametrize("hbar", [0.5, 2.0, 1e-3])
    def test_bound_read_from_the_states(self, hbar):
        # minimum-uncertainty packets under the von Neumann model sit on the
        # bound hbar/2 of their own hbar, whatever the default
        constants = qm.PhysicalConstants(hbar=hbar)
        obj = qm.min_uncertainty_packet(0.3, -0.2, 0.7, constants=constants)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.1, constants=constants)
        for model in (qm.VON_NEUMANN, qm.OZAWA_1988):
            r = qm.model_edr(qm.build_model(model), obj, probe)
            assert r.kennard_bound == hbar / 2.0
            assert r.heisenberg_violated == (model == qm.OZAWA_1988)

    def test_mixed_hbar_rejected(self):
        obj = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0, constants=HBAR2)
        for pair in ((obj, probe), (probe, obj)):
            with pytest.raises(qm.ValidationError):
                qm.model_edr(qm.build_model(qm.VON_NEUMANN), *pair)


class TestDensities:
    def test_grid_validation(self):
        model = qm.build_model(qm.VON_NEUMANN)
        obj = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        with pytest.raises(qm.ValidationError):
            qm.output_distribution(model, obj, probe, [])
        with pytest.raises(qm.ValidationError):
            qm.output_distribution(model, obj, probe, [0.0, 0.0, 1.0])
        # a NaN or infinite grid point is rejected as such, alone or not
        for grid in ([np.nan], [np.inf], [0.0, np.nan], [0.0, 1.0, np.inf]):
            with pytest.raises(qm.ValidationError, match="finite"):
                qm.position_density(obj, grid)

    def test_output_mass_is_one(self):
        model = qm.build_model(qm.VON_NEUMANN)
        obj = qm.min_uncertainty_packet(0.7, 0.0, 1.4)
        probe = qm.min_uncertainty_packet(-0.2, 0.0, 0.8)
        spread = np.sqrt(obj.cov[0, 0] + probe.cov[0, 0])
        center = obj.mean_q + probe.mean_q
        grid = np.linspace(center - 10 * spread, center + 10 * spread, 4001)
        dens = qm.output_distribution(model, obj, probe, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_output_is_convolution_for_von_neumann(self):
        model = qm.build_model(qm.VON_NEUMANN)
        obj = qm.min_uncertainty_packet(0.5, 0.0, 1.0)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        grid = np.linspace(-6, 7, 1001)
        dens = qm.output_distribution(model, obj, probe, grid)
        var = obj.cov[0, 0] + probe.cov[0, 0]
        expected = np.exp(-((grid - 0.5) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.abs(dens - expected).max() < 1e-12

    def test_narrow_probe_approaches_born_density(self):
        model = qm.build_model(qm.VON_NEUMANN)
        obj = qm.min_uncertainty_packet(0.3, 0.0, 1.2)
        grid = np.linspace(-5, 6, 2001)
        born = qm.position_density(obj, grid)
        gaps = []
        for v in (1.0, 0.1, 0.01, 0.001):
            probe = qm.min_uncertainty_packet(0.0, 0.0, float(np.sqrt(2.0 * v)))
            dens = qm.output_distribution(model, obj, probe, grid)
            gaps.append(float(np.abs(dens - born).max()))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2 * float(born.max())

    def test_position_density_peak(self):
        st = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
        dens = qm.position_density(st, [0.0])
        assert dens[0] == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-12)


class TestConditionalSpread:
    def test_von_neumann_closed_form(self):
        obj = qm.min_uncertainty_packet(0.0, 0.0, 1.3)
        probe = qm.min_uncertainty_packet(0.0, 0.0, 0.9)
        vxx, vyy = obj.cov[0, 0], probe.cov[0, 0]
        expected = (1.0 / vxx + 1.0 / vyy) ** -0.5
        got = qm.conditional_position_spread(qm.build_model(qm.VON_NEUMANN), obj, probe)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_rms_error(self):
        rng = qm.rng_from(507)
        model = qm.build_model(qm.VON_NEUMANN)
        for _ in range(100):
            obj = random_admissible_state(rng)
            probe = random_admissible_state(rng)
            spread = qm.conditional_position_spread(model, obj, probe)
            r = qm.model_edr(model, obj, probe)
            assert spread <= r.epsilon + 1e-9
