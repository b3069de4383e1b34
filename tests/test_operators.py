import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure as qm
from helpers import EYE2, KET0, KET_PLUS, P0, SX, SY, SZ


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(qm.ValidationError):
            qm.as_operator(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(qm.ValidationError):
            qm.as_operator(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(qm.ValidationError):
            qm.HermitianObservable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_unit_trace_state(self):
        with pytest.raises(qm.ValidationError):
            qm.DensityOperator(2 * P0)

    def test_rejects_negative_state(self):
        with pytest.raises(qm.ValidationError):
            qm.DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_pure_state_normalizes(self):
        rho = qm.DensityOperator.pure([2.0, 0.0])
        assert np.allclose(rho.matrix, P0)

    def test_pure_rejects_zero_vector(self):
        with pytest.raises(qm.ValidationError):
            qm.DensityOperator.pure([0.0, 0.0])

    def test_maximally_mixed(self):
        rho = qm.DensityOperator.maximally_mixed(4)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_tolerances_frozen_defaults(self):
        assert qm.DEFAULT_TOL.eq_tol == 1e-9
        assert qm.DEFAULT_TOL.psd_tol == -1e-10
        with pytest.raises(qm.ValidationError):
            qm.Tolerances(eq_tol=-1.0)
        with pytest.raises(qm.ValidationError):
            qm.Tolerances(psd_tol=1e-3)

    def test_constants(self):
        c = qm.PhysicalConstants(hbar=2.0)
        assert c.h == pytest.approx(4 * np.pi)
        with pytest.raises(qm.ValidationError):
            qm.PhysicalConstants(hbar=0.0)


class TestImmutable:
    @pytest.mark.parametrize("make", [lambda: qm.HermitianObservable(SZ),
                                      lambda: qm.DensityOperator(P0)],
                             ids=["HermitianObservable", "DensityOperator"])
    @pytest.mark.parametrize("name", ["matrix", "dim", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, make, name):
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name, None))
        with pytest.raises(AttributeError):
            delattr(obj, name)

    def test_matrices_and_projectors_read_only(self):
        with pytest.raises(ValueError):
            qm.HermitianObservable(SZ).matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            qm.DensityOperator(P0).matrix[0, 0] = 2.0
        dec = qm.spectral_decompose(SX)
        assert dec.projectors.shape == (2, 2, 2)
        with pytest.raises(ValueError):
            dec.projectors[0, 0, 0] = 2.0


class TestAlgebra:
    def test_commutator_pauli(self):
        assert np.allclose(qm.commutator(SX, SY), 2j * SZ)

    def test_hermitian_part(self):
        m = np.array([[1, 2 + 1j], [0, 3]], dtype=complex)
        h = qm.hermitian_part(m)
        assert qm.is_hermitian(h)
        assert np.allclose(h, (m + m.conj().T) / 2)

    def test_operator_distance_is_max_abs(self):
        a = np.zeros((2, 2))
        b = np.array([[0, 3e-4], [0, 0]])
        assert qm.operator_distance(a, b) == pytest.approx(3e-4)


class TestSpectral:
    def test_identity_merges_to_single_atom(self):
        dec = qm.spectral_decompose(np.eye(3, dtype=complex))
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert np.allclose(dec.projectors[0], np.eye(3))

    def test_pauli_x_projectors(self):
        dec = qm.spectral_decompose(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        minus = (EYE2 - SX) / 2
        plus = (EYE2 + SX) / 2
        assert np.allclose(dec.projectors[0], minus, atol=1e-12)
        assert np.allclose(dec.projectors[1], plus, atol=1e-12)

    def test_near_degenerate_merge(self):
        # gap below eq_tol collapses into one spectral atom
        dec = qm.spectral_decompose(np.diag([1.0, 1.0 + 1e-12]).astype(complex))
        assert len(dec.eigenvalues) == 1

    def test_random_sweep_resolution_of_identity(self):
        # projectors resolve the identity, are orthogonal, and rebuild A
        rng = qm.rng_from(101)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            a = qm.random_hermitian(d, rng)
            dec = qm.spectral_decompose(a)
            total = sum(dec.projectors)
            assert qm.operator_distance(total, np.eye(d)) < 1e-9
            assert qm.operator_distance(dec.reconstruct(), a) < 1e-8
            for i, p in enumerate(dec.projectors):
                assert qm.operator_distance(p @ p, p) < 1e-9
                for q in dec.projectors[:i]:
                    assert qm.operator_distance(p @ q, np.zeros((d, d))) < 1e-9


class TestStatistics:
    def test_expectation_frozen(self):
        rho = qm.DensityOperator.pure(KET0)
        assert qm.expectation(SZ, rho) == pytest.approx(1.0)
        assert qm.expectation(SX, rho) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(qm.ValidationError):
            qm.expectation(SZ, qm.DensityOperator.maximally_mixed(3))

    def test_std_dev_frozen(self):
        rho = qm.DensityOperator.pure(KET0)
        assert qm.std_dev(SX, rho) == pytest.approx(1.0)
        assert qm.std_dev(SZ, rho) == pytest.approx(0.0, abs=1e-12)

    def test_std_dev_vanishes_on_rotated_eigenstates(self):
        rng = qm.rng_from(108)
        for _ in range(200):
            v = qm.haar_unitary(3, rng)
            a = v @ np.diag(rng.standard_normal(3)) @ v.conj().T
            rho = qm.DensityOperator.pure(v[:, int(rng.integers(0, 3))])
            assert qm.std_dev(a, rho) <= 1e-12 * np.linalg.norm(a, 2)

    def test_robertson_bound_frozen(self):
        # (1/2)|<[sx, sy]>| = |<sz>| = 1 on |0>
        rho = qm.DensityOperator.pure(KET0)
        assert qm.robertson_bound(SX, SY, rho) == pytest.approx(1.0)
        assert qm.robertson_bound(SX, SZ, rho) == pytest.approx(0.0, abs=1e-12)

    def test_robertson_inequality_random(self):
        rng = qm.rng_from(102)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            a = qm.random_hermitian(d, rng)
            b = qm.random_hermitian(d, rng)
            rho = qm.random_density_operator(d, rng)
            lhs = qm.std_dev(a, rho) * qm.std_dev(b, rho)
            assert lhs >= qm.robertson_bound(a, b, rho) - 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_variance_nonnegative(self, d, seed):
        rng = qm.rng_from(seed, d)
        a = qm.random_hermitian(d, rng)
        rho = qm.random_density_operator(d, rng)
        assert qm.std_dev(a, rho) >= 0.0


class TestTensorAndPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(qm.partial_trace(rho, (2, 2), keep="first"), EYE2 / 2)
        assert np.allclose(qm.partial_trace(rho, (2, 2), keep="second"), EYE2 / 2)

    def test_stack_traced_slice_by_slice(self):
        rng = qm.rng_from(104)
        stack = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        for keep in ("first", "second"):
            assert np.array_equal(qm.partial_trace(stack, (2, 3), keep=keep),
                                  np.stack([qm.partial_trace(z, (2, 3), keep=keep) for z in stack]))
        assert np.array_equal(qm.dagger(stack), np.stack([z.conj().T for z in stack]))
        assert np.array_equal(qm.hermitian_part(stack), np.stack([qm.hermitian_part(z) for z in stack]))

    def test_keep_argument_validated(self):
        with pytest.raises(qm.ValidationError):
            qm.partial_trace(np.eye(4), (2, 2), keep="third")

    def test_dimension_mismatch(self):
        with pytest.raises(qm.ValidationError):
            qm.partial_trace(np.eye(6), (2, 2))

    def test_round_trip_random(self):
        # Tr_2[X (x) Y] = Tr[Y] X and the mirrored identity, 1000 draws
        rng = qm.rng_from(103)
        for _ in range(1000):
            dx = int(rng.integers(2, 5))
            dy = int(rng.integers(2, 5))
            x = qm.random_hermitian(dx, rng).matrix
            y = qm.random_hermitian(dy, rng).matrix
            xy = qm.tensor(x, y)
            assert qm.operator_distance(qm.partial_trace(xy, (dx, dy), keep="first"), np.trace(y) * x) < 1e-9
            assert qm.operator_distance(qm.partial_trace(xy, (dx, dy), keep="second"), np.trace(x) * y) < 1e-9

    def test_tensor_ordering_system_first(self):
        m = qm.tensor(SZ, np.eye(3))
        assert m.shape == (6, 6)
        assert np.allclose(np.diag(m), [1, 1, 1, -1, -1, -1])
