import json

import numpy as np
import pytest

import qmeasure as qm
from qmeasure import serialize as ser
from helpers import KET_PLUS, P0, P1, SX, SZ, dilated_luders

from qmeasure.serialize import SchemaError


class TestMatrixCodec:
    def test_round_trip_exact(self):
        rng = qm.rng_from(601)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            back = ser.matrix_from_json(ser.matrix_to_json(m))
            assert np.array_equal(back, m)

    def test_rejects_non_list(self):
        with pytest.raises(SchemaError):
            ser.matrix_from_json({"rows": []})

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            ser.matrix_from_json([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(SchemaError):
            ser.matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_bare_numbers(self):
        with pytest.raises(SchemaError):
            ser.matrix_from_json([[1.0, 0.0], [0.0, 1.0]])


class TestProcessCodec:
    def test_round_trip(self):
        mp = dilated_luders(SZ)
        back = ser.process_from_dict(ser.process_to_dict(mp))
        assert np.allclose(back.unitary, mp.unitary)
        assert np.allclose(back.probe_state.matrix, mp.probe_state.matrix)
        assert np.allclose(back.meter.matrix, mp.meter.matrix)
        assert back.system_dim == mp.system_dim

    def test_dimension_echo_validated(self):
        d = ser.process_to_dict(dilated_luders(SZ))
        d["system_dim"] = 5
        with pytest.raises(SchemaError):
            ser.process_from_dict(d)

    def test_missing_key(self):
        d = ser.process_to_dict(dilated_luders(SZ))
        del d["unitary"]
        with pytest.raises(SchemaError):
            ser.process_from_dict(d)


class TestInstrumentCodec:
    def test_round_trip(self):
        inst = qm.luders_instrument(SX)
        back = ser.instrument_from_dict(ser.instrument_to_dict(inst))
        assert qm.instrument_choi_distance(inst, back) < 1e-12

    def test_rejects_bad_outcomes(self):
        with pytest.raises(SchemaError):
            ser.instrument_from_dict({"outcomes": "ab", "kraus": []})
        with pytest.raises(SchemaError):
            ser.instrument_from_dict({"outcomes": ["a"], "kraus": [[]]})

    def test_physics_validation_still_applies(self):
        # schema-valid JSON that is not trace preserving fails physics checks
        half = ser.matrix_to_json(np.eye(2) * 0.5)
        with pytest.raises(qm.ValidationError):
            ser.instrument_from_dict({"outcomes": [0.0], "kraus": [[half]]})


class TestGaussianCodec:
    def test_round_trip(self):
        st = qm.min_uncertainty_packet(0.3, -0.7, 1.2)
        back = ser.gaussian_state_from_dict(ser._to_dict(st, ("mean", "cov")))
        assert np.array_equal(back.mean, st.mean)
        assert np.array_equal(back.cov, st.cov)

    def test_rejects_malformed(self):
        with pytest.raises(SchemaError):
            ser.gaussian_state_from_dict({"mean": [0.0], "cov": [[1, 0], [0, 1]]})
        with pytest.raises(SchemaError):
            ser.gaussian_state_from_dict({"mean": [0.0, 0.0], "cov": [[1, 0]]})


def csv_row(d: dict) -> list:
    """The report.csv row the CLI writes for a report dict."""
    return [ser._csv_cell(v) for v in d.values()]


class TestReportRows:
    def test_edr_columns_frozen(self):
        r = qm.edr_ledger(dilated_luders(SZ), SZ, SX, qm.DensityOperator.pure(KET_PLUS))
        assert list(ser.edr_report_to_dict(r)) == [
            "epsilon", "eta", "sigma_A", "sigma_B", "robertson", "correlation_term",
            "heisenberg_product", "uedr_lhs", "oedr_lhs",
            "heisenberg_holds", "uedr_holds", "oedr_holds",
        ]

    def test_edr_row_values(self):
        mp = dilated_luders(SZ)
        r = qm.edr_ledger(mp, SZ, SX, qm.DensityOperator.pure(KET_PLUS))
        d = ser.edr_report_to_dict(r)
        row = csv_row(d)
        assert len(row) == len(d)
        assert row[-3:] == ["true", "true", "true"]
        assert float(row[1]) == pytest.approx(np.sqrt(2.0))

    def test_bool_cells_lowercase(self):
        d = ser.model_edr_to_dict(
            qm.model_edr(qm.build_model(qm.OZAWA_1988),
                         qm.min_uncertainty_packet(0, 0, 1),
                         qm.min_uncertainty_packet(0, 0, 1)))
        d = dict(zip(d, csv_row(d)))
        assert d["heisenberg_violated"] == "true"
        assert d["epsilon"] == "0.0"
        assert d["model"] == "ozawa_1988"

    def test_model_dict_keys(self):
        r = qm.model_edr(qm.build_model(qm.VON_NEUMANN),
                         qm.min_uncertainty_packet(0, 0, 1),
                         qm.min_uncertainty_packet(0, 0, 1))
        d = ser.model_edr_to_dict(r)
        assert set(d) == {"model", "epsilon", "eta", "product", "hbar_over_2",
                          "heisenberg_violated"}

    def test_precision_row(self):
        rep = qm.theorem2_check(dilated_luders(SZ), SZ, qm.DensityOperator.pure(KET_PLUS))
        assert csv_row(ser.precision_report_to_dict(rep)) == ["true"] * 4

    def test_jpd_dicts(self):
        za = qm.tensor(SZ, np.eye(2))
        zb = qm.tensor(np.eye(2), SZ)
        bell = qm.DensityOperator.pure([1.0, 0.0, 0.0, 1.0])
        jd = ser._to_dict(qm.joint_distribution(za, zb, bell))
        assert jd["x_atoms"] == [-1.0, 1.0]
        assert jd["weights"][0][0] == pytest.approx(0.5)
        mp = dilated_luders(SZ)
        wjd = ser._to_dict(
            qm.weak_joint_distribution(mp, SZ, qm.DensityOperator.pure(KET_PLUS)))
        assert wjd["weights"][0][0] == pytest.approx([0.5, 0.0], abs=1e-9)


def entrywise_pairs(m) -> list:
    """The [re, im] form of a matrix, one cell at a time."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


class TestDerivedEncoders:
    """The encoders derived through _to_json against the entrywise forms they
    replaced, compared as JSON text, so a float's repr and sign count."""

    def test_match_entrywise_forms(self):
        rng = qm.rng_from(611)
        mp = qm.random_measuring_process(2, 3, rng)
        rho = qm.random_density_operator(2, rng)
        inst = qm.CPInstrument([0.0, 1.0, 2.0], [[P0], [], [P1]])  # an empty family
        cp = qm.random_cp_instrument(3, 3, rng)
        state = qm.GaussianState([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        weak = qm.weak_joint_distribution(mp, SZ, rho)
        genuine = qm.joint_distribution(SZ, SZ, rho)
        cases = [
            (ser.matrix_to_json(np.eye(2) * 0.5), entrywise_pairs(np.eye(2) * 0.5)),
            (ser.process_to_dict(mp), {
                "system_dim": 2, "probe_dim": 3,
                "probe_state": entrywise_pairs(mp.probe_state.matrix),
                "unitary": entrywise_pairs(mp.unitary),
                "meter": entrywise_pairs(mp.meter.matrix)}),
            *((ser.instrument_to_dict(i), {
                "outcomes": list(i.outcomes),
                "kraus": [[entrywise_pairs(k) for k in ops] for ops in i.kraus]}) for i in (inst, cp)),
            (ser._to_dict(qm.povm_of(cp), ("outcomes", "effects")), {
                "outcomes": list(cp.outcomes),
                "effects": [entrywise_pairs(e) for e in qm.povm_of(cp).effects]}),
            (ser._to_dict(state, ("mean", "cov")), {
                "mean": [float(x) for x in state.mean],
                "cov": [[float(x) for x in row] for row in state.cov]}),
            (ser._to_dict(weak), {
                "x_atoms": [float(x) for x in weak.x_atoms],
                "y_atoms": [float(y) for y in weak.y_atoms],
                "weights": entrywise_pairs(weak.weights)}),
            (ser._to_dict(genuine), {
                "x_atoms": [float(x) for x in genuine.x_atoms],
                "y_atoms": [float(y) for y in genuine.y_atoms],
                "weights": [[float(w) for w in row] for row in genuine.weights]}),
        ]
        for got, want in cases:
            assert json.dumps(got) == json.dumps(want)
