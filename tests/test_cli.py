import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure as qm
from qmeasure import serialize as ser
from qmeasure.cli import EXIT_ASSERTION, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from helpers import KET_PLUS, SX, SZ, dilated_luders


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def finite_process_config(report="edr"):
    mp = dilated_luders(SZ)
    rho = qm.DensityOperator.pure(KET_PLUS)
    return {
        "kind": "finite_process",
        "payload": {
            "process": ser.process_to_dict(mp),
            "observable_a": ser.matrix_to_json(SZ),
            "observable_b": ser.matrix_to_json(SX),
            "state": ser.matrix_to_json(rho.matrix),
            "report": report,
        },
    }


def gaussian_config(model="ozawa_1988", grid=None):
    cfg = {
        "kind": "gaussian_model",
        "payload": {
            "model": model,
            "object": {"packet": {"q": 0.3, "p": -0.2, "q1": 1.0}},
            "probe": {"packet": {"q": 0.0, "p": 0.0, "q1": 1.0}},
        },
    }
    if grid is not None:
        cfg["payload"]["grid"] = grid
    return cfg


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


class TestFiniteProcess:
    def test_projective_scenario(self, tmp_path):
        cfg = write_config(tmp_path, finite_process_config())
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        report = read_report(out)
        res = report["results"]
        assert res["epsilon"] < 1e-7
        assert res["eta"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert res["oedr_holds"] is True
        with open(os.path.join(out, "report.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == [
            "epsilon", "eta", "sigma_A", "sigma_B", "robertson", "correlation_term",
            "heisenberg_product", "uedr_lhs", "oedr_lhs",
            "heisenberg_holds", "uedr_holds", "oedr_holds",
        ]

    def test_instrument_payload_dilated(self, tmp_path):
        inst = qm.luders_instrument(SZ)
        cfg = finite_process_config()
        del cfg["payload"]["process"]
        cfg["payload"]["instrument"] = ser.instrument_to_dict(inst)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert res["epsilon"] < 1e-7
        assert res["eta"] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_precision_report(self, tmp_path):
        cfg = write_config(tmp_path, finite_process_config(report="precision"))
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert res == {"strong_precise": True, "weak_precise": True,
                       "eps_zero_on_cyclic": True, "prob_repro_on_cyclic": True}

    def test_unknown_report_kind(self, tmp_path):
        cfg = write_config(tmp_path, finite_process_config(report="everything"))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA


class TestGaussianModel:
    def test_ozawa_scenario(self, tmp_path):
        cfg = write_config(tmp_path, gaussian_config())
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert res["epsilon"] == 0.0
        assert res["product"] == 0.0
        assert res["heisenberg_violated"] is True
        assert res["hbar_over_2"] == 0.5

    def test_von_neumann_scenario(self, tmp_path):
        cfg = write_config(tmp_path, gaussian_config(model="von_neumann"))
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert res["product"] == pytest.approx(0.5, abs=1e-12)
        assert res["heisenberg_violated"] is False

    def test_grid_writes_densities(self, tmp_path):
        grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
        cfg = write_config(tmp_path, gaussian_config(model="von_neumann", grid=grid))
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "densities.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "y,density"
        assert len(lines) == 1 + len(grid)

    def test_hbar_flag_rescales(self, tmp_path):
        cfg = gaussian_config(model="von_neumann")
        for side in ("object", "probe"):
            cfg["payload"][side] = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out, "--hbar", "2.0"]) == EXIT_OK
        report = read_report(out)
        assert report["scenario"]["constants"]["hbar"] == 2.0
        assert report["results"]["hbar_over_2"] == 1.0

    def test_inadmissible_state_is_assertion(self, tmp_path):
        cfg = gaussian_config(model="von_neumann")
        cfg["payload"]["object"] = {"mean": [0.0, 0.0], "cov": [[0.01, 0.0], [0.0, 0.01]]}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_ASSERTION


class TestSweepCommand:
    def test_sweep_subcommand(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["sweep", "--dims", "2..3", "--trials", "25", "--seed", "5",
                     "--out", out])
        assert code == EXIT_OK
        res = read_report(out)["results"]
        assert res["trials"] == 25
        assert res["uedr_failures"] == 0
        assert res["oedr_failures"] == 0
        assert res["lu_oedr_failures"] == 0
        assert res["theorem2_disagreements"] == 0

    def test_sweep_single_dim_form(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--dims", "3", "--trials", "5", "--seed", "1",
                     "--out", out]) == EXIT_OK
        assert read_report(out)["scenario"]["payload"]["dims"] == [3, 3]

    def test_sweep_bad_dims(self, tmp_path):
        assert main(["sweep", "--dims", "x..y", "--trials", "5", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_identity_interaction_violations_still_ok(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "sweep",
            "payload": {"dims": [2, 3], "trials": 30, "seed": 11,
                        "interaction": "identity"},
        })
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert res["heisenberg_violations"] > 0


class TestExitCodes:
    def test_missing_config_is_io(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_IO

    def test_malformed_json_is_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_unknown_kind_is_schema(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "other", "payload": {}})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_missing_payload_key_is_schema(self, tmp_path):
        cfg = finite_process_config()
        del cfg["payload"]["observable_a"]
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_non_unitary_process_is_assertion(self, tmp_path):
        cfg = finite_process_config()
        cfg["payload"]["process"]["unitary"] = ser.matrix_to_json(np.eye(4) * 1.1)
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_ASSERTION


class TestSettingsPrecedence:
    def test_env_var_sets_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMEASURE_TOL", "1e-7")
        cfg = write_config(tmp_path, gaussian_config())
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        assert read_report(out)["scenario"]["tolerances"]["eq_tol"] == 1e-7

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMEASURE_TOL", "1e-7")
        cfg = gaussian_config()
        cfg["tolerances"] = {"eq_tol": 1e-8}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert read_report(out)["scenario"]["tolerances"]["eq_tol"] == 1e-8

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMEASURE_TOL", "1e-7")
        cfg = gaussian_config()
        cfg["tolerances"] = {"eq_tol": 1e-8}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out, "--tol", "1e-6"]) == EXIT_OK
        assert read_report(out)["scenario"]["tolerances"]["eq_tol"] == 1e-6

    def test_bad_env_var_is_schema(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMEASURE_TOL", "tiny")
        cfg = write_config(tmp_path, gaussian_config())
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA


class TestReportCsv:
    @pytest.mark.parametrize("cfg", [finite_process_config("edr"), finite_process_config("precision"),
                                     gaussian_config()], ids=["edr", "precision", "gaussian"])
    def test_cells_parse_and_match_json(self, tmp_path, cfg):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        results = read_report(out)["results"]
        with open(os.path.join(out, "report.csv")) as fh:
            header, row = [line.split(",") for line in fh.read().splitlines()]
        assert sorted(header) == sorted(results)
        for col, cell in zip(header, row):
            value = results[col]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false"), col
            elif isinstance(value, (int, float)):
                assert float(cell) == value, col
            else:
                assert cell == str(value), col


class TestDeterminism:
    @staticmethod
    def stable_lines(out_dir):
        with open(os.path.join(out_dir, "report.json")) as fh:
            return [ln for ln in fh.read().splitlines() if '"wall_time"' not in ln]

    def test_reports_byte_stable_modulo_wall_time(self, tmp_path):
        for cfg in (finite_process_config(), gaussian_config(),
                    {"kind": "sweep", "payload": {"dims": [2, 3], "trials": 10, "seed": 3}}):
            name = cfg["kind"] + ".json"
            path = write_config(tmp_path, cfg, name=name)
            out1 = str(tmp_path / (cfg["kind"] + "_1"))
            out2 = str(tmp_path / (cfg["kind"] + "_2"))
            assert main(["run", path, "--out", out1]) == EXIT_OK
            assert main(["run", path, "--out", out2]) == EXIT_OK
            assert self.stable_lines(out1) == self.stable_lines(out2)
            with open(os.path.join(out1, "report.csv"), "rb") as f1, \
                    open(os.path.join(out2, "report.csv"), "rb") as f2:
                assert f1.read() == f2.read()


def read_csv_header(out_dir):
    with open(os.path.join(out_dir, "report.csv")) as fh:
        return fh.readline().strip().split(",")


class TestCsvHeadersFrozen:
    def test_gaussian_header(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, gaussian_config()), "--out", out]) == EXIT_OK
        assert read_csv_header(out) == [
            "model", "epsilon", "eta", "product", "hbar_over_2", "heisenberg_violated",
        ]

    def test_precision_header(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, finite_process_config(report="precision"))
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert read_csv_header(out) == [
            "strong_precise", "weak_precise", "eps_zero_on_cyclic", "prob_repro_on_cyclic",
        ]

    def test_sweep_header(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--dims", "2", "--trials", "2", "--seed", "0",
                     "--out", out]) == EXIT_OK
        assert read_csv_header(out) == [
            "trials", "uedr_failures", "oedr_failures", "lu_oedr_failures",
            "heisenberg_violations", "theorem2_disagreements",
        ]


def sweep_config(trials=2, seed=0):
    return {"kind": "sweep", "payload": {"dims": [2, 2], "trials": trials, "seed": seed}}


def set_path(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return cfg


def run_captured(argv):
    """main(argv) with stderr captured; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


BAD_NUMBERS = [
    ("hbar-string", gaussian_config, ("constants", "hbar"), "abc"),
    ("hbar-nan", gaussian_config, ("constants", "hbar"), float("nan")),
    ("hbar-inf", gaussian_config, ("constants", "hbar"), float("inf")),
    ("hbar-bool", gaussian_config, ("constants", "hbar"), True),
    ("hbar-beyond-float", gaussian_config, ("constants", "hbar"), 10 ** 400),
    ("eq-tol-string", gaussian_config, ("tolerances", "eq_tol"), "x"),
    ("eq-tol-list", gaussian_config, ("tolerances", "eq_tol"), [1e-9]),
    ("psd-tol-string", gaussian_config, ("tolerances", "psd_tol"), "x"),
    ("packet-q1-string", gaussian_config, ("payload", "object", "packet", "q1"), "x"),
    ("packet-q-null", gaussian_config, ("payload", "probe", "packet", "q"), None),
    ("packet-p-bool", gaussian_config, ("payload", "object", "packet", "p"), False),
    ("trials-string", sweep_config, ("payload", "trials"), "ten"),
    ("trials-fraction", sweep_config, ("payload", "trials"), 2.5),
    ("seed-string", sweep_config, ("payload", "seed"), "s"),
    ("seed-nan", sweep_config, ("payload", "seed"), float("nan")),
    ("system-dim-string", finite_process_config, ("payload", "process", "system_dim"), "x"),
    ("probe-dim-fraction", finite_process_config, ("payload", "process", "probe_dim"), 2.5),
    ("matrix-entry-string", finite_process_config, ("payload", "observable_a", 0, 0, 0), "1"),
]


class TestBadNumbers:
    @pytest.mark.parametrize("make, path, value", [case[1:] for case in BAD_NUMBERS],
                             ids=[case[0] for case in BAD_NUMBERS])
    def test_config_number_is_schema_error(self, tmp_path, make, path, value):
        path_ = write_config(tmp_path, set_path(make(), path, value))
        code, err = run_captured(["run", path_, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEMA
        assert "schema violation" in err and "Traceback" not in err

    @pytest.mark.parametrize("env", ["nan", "inf", "x"])
    def test_env_tolerance_is_schema_error(self, tmp_path, monkeypatch, env):
        monkeypatch.setenv("QMEASURE_TOL", env)
        code, _ = run_captured(["run", write_config(tmp_path, gaussian_config()),
                                "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("flag", ["--hbar", "--tol"])
    def test_non_finite_flag_is_schema_error(self, tmp_path, flag):
        code, _ = run_captured(["run", write_config(tmp_path, gaussian_config()),
                                "--out", str(tmp_path / "out"), flag, "nan"])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("make, path, value", [
        (gaussian_config, ("constants", "hbar"), 1e300),
        (gaussian_config, ("payload", "object", "packet", "q1"), 1e-200),
        (finite_process_config, ("payload", "state", 0, 0, 0), 10 ** 400),
    ], ids=["hbar-squared-overflows", "q1-squared-underflows", "matrix-entry-beyond-float"])
    def test_float_range_failure_is_assertion(self, tmp_path, make, path, value):
        path_ = write_config(tmp_path, set_path(make(), path, value))
        code, err = run_captured(["run", path_, "--out", str(tmp_path / "out")])
        assert code == EXIT_ASSERTION
        assert "Traceback" not in err

    def test_negative_seed_is_assertion(self, tmp_path):
        path = write_config(tmp_path, sweep_config(seed=-1))
        code, err = run_captured(["run", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_ASSERTION
        assert "Traceback" not in err

    @pytest.mark.parametrize("hi", [1000, 100000000000000000000], ids=["1000", "beyond-int64"])
    def test_sweep_dims_above_limit_is_assertion(self, tmp_path, hi):
        path = write_config(tmp_path, set_path(sweep_config(), ("payload", "dims"), [2, hi]))
        code, err = run_captured(["run", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_ASSERTION
        assert "Traceback" not in err

    def test_integral_float_trials_accepted(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, sweep_config(trials=2.0))
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert read_report(out)["results"]["trials"] == 2


CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
CONFIG_NAMES = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))


def load_fuzz_base(name):
    """A shipped config with explicit settings, its sweep cut to at most 3 trials."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    cfg.setdefault("constants", {"hbar": 1.0})
    cfg.setdefault("tolerances", {"eq_tol": 1e-9, "psd_tol": -1e-10})
    if cfg["kind"] == "sweep":
        cfg["payload"]["trials"] = min(cfg["payload"]["trials"], 3)
    return cfg


def field_paths(node, prefix=()):
    """The key path of every field of the objects nested in a config."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from field_paths(value, prefix + (key,))


def json_values(small_numbers):
    """Arbitrary JSON values; with small_numbers every number is at most 3,
    which keeps a mutated sweep at 3 trials or fewer and at tiny dims."""
    if small_numbers:
        numbers = st.integers(-3, 3) | st.floats(max_value=3.0)
    else:
        numbers = st.integers() | st.floats()
    leaves = st.none() | st.booleans() | numbers | st.text(max_size=4)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)


class TestConfigFuzz:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_field_exits_cleanly(self, name, data):
        cfg = load_fuzz_base(name)
        path = data.draw(st.sampled_from(list(field_paths(cfg))), label="field")
        value = data.draw(json_values(cfg["kind"] == "sweep"), label="value")
        set_path(cfg, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "scenario.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            code, err = run_captured(["run", cfg_path, "--out", os.path.join(tmp, "out")])
        assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_ASSERTION), err
        assert "Traceback" not in err
