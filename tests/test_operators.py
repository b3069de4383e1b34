import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure as qm
from helpers import EYE2, KET0, KET_PLUS, P0, SX, SY, SZ, dilated_luders, reference_partial_trace


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

    @pytest.mark.parametrize("make", [
        qm.as_operator,
        qm.HermitianObservable,
        qm.DensityOperator,
        qm.spectral_decompose,
        lambda m: qm.POVM([0.0], [m]),
    ], ids=["as_operator", "HermitianObservable", "DensityOperator", "spectral_decompose",
            "POVM"])
    def test_rejects_dimension_zero(self, make):
        with pytest.raises(qm.ValidationError, match="nonempty square"):
            make(np.zeros((0, 0)))

    def test_pure_state_normalizes(self):
        rho = qm.DensityOperator.pure([2.0, 0.0])
        assert np.allclose(rho.matrix, P0)

    def test_pure_rejects_zero_vector(self):
        with pytest.raises(qm.ValidationError):
            qm.DensityOperator.pure([0.0, 0.0])

    def test_tolerances_frozen_defaults(self):
        assert qm.DEFAULT_TOL.eq_tol == 1e-9
        assert qm.DEFAULT_TOL.psd_tol == -1e-10
        with pytest.raises(qm.ValidationError):
            qm.Tolerances(eq_tol=-1.0)
        # a non-finite tolerance makes every slack infinite or removes the floor
        for bad in ({"psd_tol": 1e-3}, {"eq_tol": np.inf}, {"eq_tol": np.nan},
                    {"psd_tol": -np.inf}, {"psd_tol": np.nan}):
            with pytest.raises(qm.ValidationError):
                qm.Tolerances(**bad)

    def test_constants(self):
        assert qm.PhysicalConstants(hbar=2.0).hbar == 2.0
        for hbar in (0.0, np.inf, np.nan):
            with pytest.raises(qm.ValidationError):
                qm.PhysicalConstants(hbar=hbar)


# Hermitian with unit trace, but not positive: a raw array passed as a
# state is validated exactly as DensityOperator validates it
NON_POSITIVE_STATE = np.diag([1.5, -0.5]).astype(complex)
ACCEPTS_RAW_STATE = {
    "edr_ledger": lambda rho: qm.edr_ledger(dilated_luders(SZ), SZ, SX, rho),
    "rms_error": lambda rho: qm.rms_error(dilated_luders(SZ), SZ, rho),
    "rms_disturbance": lambda rho: qm.rms_disturbance(dilated_luders(SZ), SX, rho),
    "locally_uniform_rms_error": lambda rho: qm.locally_uniform_rms_error(
        dilated_luders(SZ), SZ, rho),
    "std_dev": lambda rho: qm.std_dev(SZ, rho),
    "robertson_bound": lambda rho: qm.robertson_bound(SZ, SX, rho),
    "cyclic_subspace": lambda rho: qm.cyclic_subspace(SZ, rho),
    "commute_in_state": lambda rho: qm.commute_in_state(SZ, SX, rho),
    "post_state": lambda rho: qm.post_state(qm.luders_instrument(SZ), 1.0, rho),
    "MeasuringProcess.composite_state": lambda rho: dilated_luders(SZ).composite_state(rho),
}


@pytest.mark.parametrize("name", list(ACCEPTS_RAW_STATE))
def test_raw_state_is_validated_as_density_operator(name):
    ACCEPTS_RAW_STATE[name](P0)  # a valid raw state passes
    with pytest.raises(qm.ValidationError, match="negative eigenvalue"):
        ACCEPTS_RAW_STATE[name](NON_POSITIVE_STATE)


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
        with pytest.raises(ValueError):
            dec.blocks[0][0, 0] = 2.0
        with pytest.raises(AttributeError):
            dec.blocks = ()
        rho = qm.DensityOperator(P0)
        for arr in rho.support:
            with pytest.raises(ValueError):
                arr[0] = 2.0
        with pytest.raises(AttributeError):
            rho.support = (np.ones(2), np.eye(2))

    @pytest.mark.parametrize("make", [
        lambda: qm.HermitianObservable(SZ),
        lambda: qm.DensityOperator(P0),
        lambda: dilated_luders(SZ),
        lambda: qm.luders_instrument(SZ),
        lambda: qm.povm_of(qm.luders_instrument(SZ)),
        lambda: qm.GaussianState([0.5, -1.0], np.eye(2)),
    ], ids=["HermitianObservable", "DensityOperator", "MeasuringProcess", "CPInstrument", "POVM",
            "GaussianState"])
    def test_reprs_print_plain_python_numbers(self, make):
        # numpy 2 writes a numpy scalar as np.float64(...)
        obj = make()
        assert "np." not in repr(obj), repr(obj)


class TestAlgebra:
    def test_commutator_pauli(self):
        assert np.allclose(qm.commutator(SX, SY), 2j * SZ)

    def test_hermitian_part(self):
        m = np.array([[1, 2 + 1j], [0, 3]], dtype=complex)
        h = qm.hermitian_part(m)
        assert np.array_equal(h, h.conj().T)
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
        for t in range(1000):
            d = int(rng.integers(2, 9))
            a = qm.random_hermitian(d, rng)
            if t % 2:  # degenerate: integer eigenvalues in a Haar basis
                u = qm.haar_unitary(d, rng)
                a = qm.HermitianObservable(u @ np.diag(rng.integers(-2, 3, d)) @ u.conj().T)
            dec = qm.spectral_decompose(a)
            total = sum(dec.projectors)
            assert qm.operator_distance(total, np.eye(d)) < 1e-9
            rebuilt = np.einsum("i,iab->ab", dec.eigenvalues, dec.projectors)  # sum a_i P_i
            assert qm.operator_distance(rebuilt, a) < 1e-8
            for i, p in enumerate(dec.projectors):
                assert qm.operator_distance(p @ p, p) < 1e-9
                for q in dec.projectors[:i]:
                    assert qm.operator_distance(p @ q, np.zeros((d, d))) < 1e-9
            # each block holds orthonormal eigenvector columns spanning its
            # projector's range, with the cluster's value as their mean eigenvalue
            assert len(dec.blocks) == len(dec.projectors)
            for v, p, x in zip(dec.blocks, dec.projectors, dec.eigenvalues):
                assert qm.operator_distance(v.conj().T @ v, np.eye(v.shape[1])) < 1e-12
                assert qm.operator_distance(v @ v.conj().T, p) < 1e-12
                assert v.shape == (d, round(np.trace(p).real))
                assert abs(np.trace(v.conj().T @ a.matrix @ v).real / v.shape[1] - x) < 1e-12


def sorted_run_labels(v, tol=qm.DEFAULT_TOL):
    """Cluster labels of an ascending run by the chain rule, written out."""
    labels = [0]
    slack = max(tol.eq_tol, np.finfo(float).eps) * max(abs(v[0]), abs(v[-1]))
    for lo, hi in zip(v[:-1], v[1:]):
        labels.append(labels[-1] + int(hi - lo > slack))
    return labels


class TestClusterLabels:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gaps=st.lists(st.sampled_from([0.0, 0.5e-9, 0.9e-9, 1.2e-9, 2e-9, 1e-6]),
                         min_size=1, max_size=10),
           offset=st.sampled_from([0.0, 1.0, -3.0, 1e-8]), data=st.data())
    def test_labels_follow_the_values_in_any_order(self, gaps, offset, data):
        # values in input order get the labels of their sorted positions, and
        # a sorted run is labelled by the chain rule
        run = offset + np.concatenate([[0.0], np.cumsum(gaps)])
        labels = qm.operators._cluster_labels(run, qm.DEFAULT_TOL)
        assert labels.tolist() == sorted_run_labels(run)
        perm = np.array(data.draw(st.permutations(range(len(run)))))
        assert (qm.operators._cluster_labels(run[perm], qm.DEFAULT_TOL) == labels[perm]).all()


class TestStatistics:
    def test_expectation_frozen(self):
        rho = qm.DensityOperator.pure(KET0)
        assert qm.expectation(SZ, rho) == pytest.approx(1.0)
        assert qm.expectation(SX, rho) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(qm.ValidationError):
            qm.expectation(SZ, qm.DensityOperator(np.eye(3) / 3))

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
        assert np.allclose(qm.partial_trace(rho, (2, 2)), EYE2 / 2)

    def test_stack_traced_slice_by_slice(self):
        rng = qm.rng_from(104)
        stack = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        assert np.array_equal(qm.partial_trace(stack, (2, 3)),
                              np.stack([qm.partial_trace(z, (2, 3)) for z in stack]))
        assert np.array_equal(qm.dagger(stack), np.stack([z.conj().T for z in stack]))
        assert np.array_equal(qm.hermitian_part(stack), np.stack([qm.hermitian_part(z) for z in stack]))

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (3, 2)])
    def test_traces_out_the_second_factor(self, dims):
        # block sums over the second factor, on a stack of non-Hermitian operators
        rng = qm.rng_from(105)
        n = dims[0] * dims[1]
        stack = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        out = qm.partial_trace(stack, dims)
        assert out.shape == (4, dims[0], dims[0])
        assert np.abs(out - reference_partial_trace(stack, dims)).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(qm.ValidationError):
            qm.partial_trace(np.eye(6), (2, 2))
        # dims are two positive integers, numpy's included, never truncated
        for dims in ((-2, -2), (2.5, 2), (0, 4), (True, 4), (4,), (2, 2, 1)):
            with pytest.raises(qm.ValidationError, match="dims must be"):
                qm.partial_trace(np.eye(4), dims)
        assert np.array_equal(qm.partial_trace(np.eye(4), np.array([2, 2])), 2 * np.eye(2))

    def test_round_trip_random(self):
        # Tr_2[X (x) Y] = Tr[Y] X, 1000 draws
        rng = qm.rng_from(103)
        for _ in range(1000):
            dx = int(rng.integers(2, 5))
            dy = int(rng.integers(2, 5))
            x = qm.random_hermitian(dx, rng).matrix
            y = qm.random_hermitian(dy, rng).matrix
            xy = qm.tensor(x, y)
            assert qm.operator_distance(qm.partial_trace(xy, (dx, dy)), np.trace(y) * x) < 1e-9

    def test_tensor_ordering_system_first(self):
        m = qm.tensor(SZ, np.eye(3))
        assert m.shape == (6, 6)
        assert np.allclose(np.diag(m), [1, 1, 1, -1, -1, -1])


PACKET = qm.min_uncertainty_packet(0.0, 0.0, 1.0)
RAW_INPUTS = {
    "tensor-vector": lambda: qm.tensor(np.eye(2), np.ones(3)),
    "tensor-nan": lambda: qm.tensor(np.eye(2), np.full((2, 2), np.nan)),
    "partial_trace-ragged": lambda: qm.partial_trace([[1, 2], [3]], (1, 2)),
    "partial_trace-nan": lambda: qm.partial_trace(np.full((4, 4), np.nan), (2, 2)),
    "expectation-nan": lambda: qm.expectation(np.nan * np.eye(2), np.eye(2) / 2),
    "CPInstrument.apply-nan": lambda: qm.luders_instrument(SZ).apply(np.full((2, 2), np.nan)),
    "kraus_from_choi-nan": lambda: qm.kraus_from_choi(np.full((4, 4), np.nan), 2, 0.0),
    "kraus_from_choi-string": lambda: qm.kraus_from_choi("x", 2, 0.0),
    "pure-strings": lambda: qm.DensityOperator.pure(["a", "b"]),
    "GaussianState-complex": lambda: qm.GaussianState([1 + 1j, 0], np.eye(2)),
    "GaussianState-string": lambda: qm.GaussianState(["a", 0], np.eye(2)),
    "propagate-complex": lambda: qm.propagate(qm.build_model("von_neumann"), [1j, 0, 0, 0], np.eye(4)),
    "position_density-complex": lambda: qm.position_density(PACKET, [1j, 2]),
    "position_density-string": lambda: qm.position_density(PACKET, ["a"]),
    "operator_distance-row": lambda: qm.operator_distance(np.eye(2), np.ones((1, 2))),
    "operator_distance-scalar": lambda: qm.operator_distance(np.eye(2), 0),
    "operator_distance-3x3": lambda: qm.operator_distance(np.eye(2), np.eye(3)),
    "as_operator-numeric-strings": lambda: qm.as_operator([["1", "0"], ["0", "1"]]),
    "as_operator-bools": lambda: qm.as_operator(np.eye(2, dtype=bool)),
    "as_operator-objects": lambda: qm.as_operator(np.eye(2, dtype=object)),
    "POVM-bool-effects": lambda: qm.POVM([0.0], np.eye(2, dtype=bool)[None]),
    "as_operator-bool-among-numbers": lambda: qm.as_operator([[1, 0], [0, True]]),
    "as_operator-bool-among-complex": lambda: qm.as_operator(((1j, 0), (0, False))),
    "as_operator-numpy-bool-among-numbers": lambda: qm.as_operator([[1.0, 0], [0, np.True_]]),
    "POVM-bool-outcome": lambda: qm.POVM([0.0, True], [np.diag([1.0, 0]), np.diag([0, 1.0])]),
    "POVM-bool-effect-among-floats": lambda: qm.POVM([0.0, 1.0], [np.diag([1.0, 0]),
                                                                  np.diag([False, True])]),
    "GaussianState-bool-mean": lambda: qm.GaussianState([0.0, True], np.eye(2)),
}


@pytest.mark.parametrize("name", list(RAW_INPUTS))
def test_raw_input_is_validation_error(name):
    # a ragged, non-numeric, complex-for-real, non-finite or misshapen array,
    # where numpy's own error or a NaN result would otherwise come back
    with pytest.raises(qm.ValidationError):
        RAW_INPUTS[name]()


INST = qm.luders_instrument(SZ)
PLUS = qm.DensityOperator.pure(KET_PLUS)
NAN = float("nan")
# every scalar or option parameter, with each kind of value it does not take:
# a string (for a number), a bool, NaN and a nested list, and a few values of
# the right type out of range; (name, call of one value)
MISUSE_PARAMETERS = [
    ("Tolerances-eq_tol", lambda v: qm.Tolerances(eq_tol=v), ("1e-9", True, NAN, [[1e-9]])),
    ("Tolerances-psd_tol", lambda v: qm.Tolerances(psd_tol=v), ("0", False, NAN, [[0.0]])),
    ("PhysicalConstants-hbar", lambda v: qm.PhysicalConstants(hbar=v), ("1", True, NAN, [[1.0]])),
    ("partial_trace-dims", lambda v: qm.partial_trace(np.eye(4), v),
     ("22", (True, 2), (NAN, 2), [[2, 2]], (2, 0))),
    ("kraus_from_choi-cutoff", lambda v: qm.kraus_from_choi(np.eye(4) / 2, 2, v),
     ("0", True, NAN, [[0.0]], -1.0)),
    ("check_repeatability-epsilon", lambda v: qm.check_repeatability(INST, SZ, PLUS, v),
     ("0", True, NAN, [[0.0]], -1.0, float("inf"))),
    ("post_state-outcome_set", lambda v: qm.post_state(INST, v, PLUS),
     ("1", True, NAN, [[1.0]], 1j, [[1.0], 2.0])),
    ("apply-outcome_set", lambda v: INST.apply(PLUS.matrix, v),
     ("1", True, NAN, [[1.0]], 1j, [[1.0], 2.0])),
    ("choi-index", INST.choi, (1.5, True, 5, -1)),
    ("build_model-id", qm.build_model, (True, NAN, [["von_neumann"]], "other")),
    ("min_uncertainty_packet-q", lambda v: qm.min_uncertainty_packet(v, 0.0, 1.0),
     ("1", True, NAN, [[1.0]])),
    ("min_uncertainty_packet-p", lambda v: qm.min_uncertainty_packet(0.0, v, 1.0),
     ("1", True, NAN, [[1.0]])),
    ("min_uncertainty_packet-q1", lambda v: qm.min_uncertainty_packet(0.0, 0.0, v),
     ("1", True, NAN, [[1.0]], 0.0, -1.0, 3e-162)),
    ("random_measuring_process-interaction",
     lambda v: qm.random_measuring_process(2, 2, qm.rng_from(1), interaction=v),
     (True, NAN, [["haar"]], "other")),
    ("random_cp_instrument-n_outcomes", lambda v: qm.random_cp_instrument(2, v, qm.rng_from(1)),
     ("2", True, NAN, [[2]], 0)),
    ("random_cp_instrument-max_kraus_per_outcome",
     lambda v: qm.random_cp_instrument(2, 2, qm.rng_from(1), max_kraus_per_outcome=v),
     ("2", True, NAN, [[2]], 0)),
]
MISUSE = {f"{name}-{value!r}": (call, value)
          for name, call, values in MISUSE_PARAMETERS for value in values}


@pytest.mark.parametrize("case", list(MISUSE))
def test_misused_parameter_is_validation_error(case):
    # each value enters through _number, _numbers or _choice: a value of the
    # wrong type is a SchemaError, one out of range a ValidationError, never
    # numpy's or Python's TypeError, ValueError or AttributeError
    call, value = MISUSE[case]
    with pytest.raises(qm.ValidationError):
        call(value)
