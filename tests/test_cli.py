import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure as qm
from qmeasure import serialize as ser
from qmeasure.cli import EXIT_ASSERTION, EXIT_IO, EXIT_OK, EXIT_SCHEMA, main
from helpers import KET_PLUS, SX, SZ, dilated_luders


CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
CONFIG_NAMES = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))


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

    def test_instrument_payload(self, tmp_path):
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

    def test_shipped_neutron_spin_experiment(self, tmp_path):
        # Erhart et al. (2012) at phi = pi/8: Heisenberg's product fails, and
        # both universally valid relations hold
        out = str(tmp_path / "out")
        path = os.path.join(CONFIG_DIR, "experiment_neutron_spin.json")
        assert main(["run", path, "--out", out]) == EXIT_OK
        res = read_report(out)["results"]
        assert abs(res["epsilon"] - 2.0 * np.sin(np.pi / 16)) <= 1e-13
        assert abs(res["eta"] - np.sqrt(2.0) * np.cos(np.pi / 8)) <= 1e-13
        assert (res["heisenberg_holds"], res["uedr_holds"], res["oedr_holds"]) == (False, True, True)

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-16"]], ids=["default-tol", "tol-1e-16"])
    def test_shipped_precise_channel(self, tmp_path, tol):
        # a Lüders sigma_z measurement followed by a bit flip with p = 1/2 is
        # precise for sigma_z in |+>: every face, the strong one included, reads True
        out = str(tmp_path / "out")
        path = os.path.join(CONFIG_DIR, "finite_precise_channel.json")
        assert main(["run", path, "--out", out] + tol) == EXIT_OK
        assert read_report(out)["results"] == {"strong_precise": True, "weak_precise": True,
                                               "eps_zero_on_cyclic": True,
                                               "prob_repro_on_cyclic": True}


def instrument_config(inst, a, report):
    """finite_process_config with inst in place of the process and a as observable_a."""
    cfg = finite_process_config(report)
    del cfg["payload"]["process"]
    cfg["payload"]["instrument"] = ser.instrument_to_dict(inst)
    cfg["payload"]["observable_a"] = ser.matrix_to_json(a)
    return cfg


class TestInstrumentPayloadNeedsNoDilation:
    """An instrument config is read from its Kraus operators: an edr report
    never dilates it, and a precision report dilates it once, for the
    strong face, and only when the weak face holds."""

    def test_shipped_instrument_config(self, tmp_path, monkeypatch):
        def refuse(inst):
            raise AssertionError("an edr report dilated its instrument")

        monkeypatch.setattr(qm.jpd, "dilate", refuse)
        monkeypatch.setattr(qm.instruments, "dilate", refuse)
        path = os.path.join(CONFIG_DIR, "finite_instrument.json")
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        monkeypatch.undo()
        # the same report, to the bit, as the dilate-first route
        with open(path) as fh:
            payload = json.load(fh)["payload"]
        inst = ser.instrument_from_dict(payload["instrument"])
        a, b, rho = (ser.matrix_from_json(payload[key])
                     for key in ("observable_a", "observable_b", "state"))
        want = ser.edr_report_to_dict(qm.edr_ledger(qm.dilate(inst), a, b, rho))
        assert read_report(out)["results"] == want

    @pytest.mark.parametrize("inst, precise", [(qm.luders_instrument(SZ), True),
                                               (qm.luders_instrument(SX), False)],
                             ids=["luders-precise", "not-precise"])
    def test_precision_report(self, tmp_path, monkeypatch, inst, precise):
        calls = []

        def counting(instrument):
            calls.append(instrument)
            return qm.dilate(instrument)

        monkeypatch.setattr(qm.jpd, "dilate", counting)
        path = write_config(tmp_path, instrument_config(inst, SZ, "precision"))
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert set(read_report(out)["results"].values()) == {precise}
        assert len(calls) == int(precise)

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-16"]], ids=["default-tol", "tol-1e-16"])
    @pytest.mark.parametrize("a", [None, np.diag([-1.0, 1.0])], ids=["shipped-a", "diagonal"])
    def test_luders_precision_report_every_flag_true(self, tmp_path, a, tol):
        # the Lüders instrument of the shipped config's A, or of diag(-1, 1), whose
        # first Kraus column is e0 already: the dilation's QR has a tau = 0 reflector
        with open(os.path.join(CONFIG_DIR, "finite_instrument.json")) as fh:
            cfg = json.load(fh)
        a = ser.matrix_from_json(cfg["payload"]["observable_a"]) if a is None else a
        cfg["payload"].update(observable_a=ser.matrix_to_json(a), report="precision",
                              instrument=ser.instrument_to_dict(qm.luders_instrument(a)))
        out = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg), "--out", out] + tol) == EXIT_OK
        assert set(read_report(out)["results"].values()) == {True}


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

    def test_leaky_instrument_is_assertion(self, tmp_path, capsys):
        # effects summing to 1 + 2.5e-9: rejected as an instrument, not as
        # the coupling of its dilation
        with open(os.path.join(CONFIG_DIR, "finite_instrument.json")) as fh:
            cfg = json.load(fh)
        eye = np.eye(2)
        cfg["payload"]["instrument"] = {
            "outcomes": [0.0, 1.0],
            "kraus": [[ser.matrix_to_json(np.sqrt(0.5 * (1 + 5e-9)) * eye)],
                      [ser.matrix_to_json(np.sqrt(0.5) * eye)]],
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_ASSERTION
        assert "sum to the identity" in capsys.readouterr().err

    def test_coupling_checked_in_every_panel(self, tmp_path, capsys):
        # a Haar coupling on d_s = 2, d_p = 65 (n = 130, three 64-row panels of the
        # unitarity check), then the same with its last column scaled by 1 + 1e-6,
        # a defect only the last panel sees
        dp = 65
        u = qm.haar_unitary(2 * dp, qm.rng_from(130))
        with open(os.path.join(CONFIG_DIR, "finite_luders.json")) as fh:
            cfg = json.load(fh)
        for factor, code in ((1.0, EXIT_OK), (1 + 1e-6, EXIT_ASSERTION)):
            scaled = u.copy()
            scaled[:, -1] *= factor
            cfg["payload"]["process"] = {
                "probe_state": ser.matrix_to_json(np.diag(np.eye(dp)[0])),
                "unitary": ser.matrix_to_json(scaled),
                "meter": ser.matrix_to_json(np.diag(np.arange(float(dp)))),
            }
            path = write_config(tmp_path, cfg)
            assert main(["run", path, "--out", str(tmp_path / "out")]) == code
        assert "not unitary" in capsys.readouterr().err


class TestInProcess:
    """main(argv) called repeatedly in one process, as a batch driver does."""

    def test_usage_error_returns_schema(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "--trials", "x", "--seed", "1", "--out", out]) == EXIT_SCHEMA
        assert "argument --trials: invalid int value: 'x'" in capsys.readouterr().err
        assert main(["run", write_config(tmp_path, gaussian_config()), "--out", out]) == EXIT_OK

    def test_help_returns_ok(self, capsys):
        assert main(["run", "--help"]) == EXIT_OK
        assert "qmeasure run" in capsys.readouterr().out

    def test_parser_built_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = write_config(tmp_path, gaussian_config())
        for i in range(4):
            assert main(["run", path, "--out", str(tmp_path / f"out{i}")]) == EXIT_OK
            if i == 0:
                built.clear()
        assert built == []

    def test_no_state_leaks_between_calls(self, tmp_path):
        cfg = gaussian_config(model="von_neumann")
        cfg["constants"] = {"hbar": 0.5}
        for side in ("object", "probe"):
            cfg["payload"][side] = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        path = write_config(tmp_path, cfg)
        first, scaled, plain, sweep = (str(tmp_path / name)
                                       for name in ("first", "scaled", "plain", "sweep"))
        assert main(["run", path, "--out", first]) == EXIT_OK
        assert main(["run", path, "--out", scaled, "--hbar", "2.0"]) == EXIT_OK
        assert read_report(scaled)["scenario"]["constants"]["hbar"] == 2.0
        assert main(["run", path, "--out", plain]) == EXIT_OK
        assert main(["sweep", "--dims", "2", "--trials", "3", "--seed", "4",
                     "--out", sweep]) == EXIT_OK
        assert read_report(plain)["scenario"]["constants"]["hbar"] == 0.5
        assert read_report(sweep)["scenario"]["constants"]["hbar"] == 1.0
        assert read_report(sweep)["scenario"]["payload"] == {"dims": [2, 2], "trials": 3,
                                                             "seed": 4}
        assert TestDeterminism.stable_bytes(plain) == TestDeterminism.stable_bytes(first)
        with open(os.path.join(first, "report.csv"), "rb") as f1, \
                open(os.path.join(plain, "report.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_batch_matches_fresh_process(self, tmp_path, name):
        # a shipped config run twice through main in this process, a usage error
        # after each call, writes what `python -m qmeasure.cli run` writes in a new one
        cfg = os.path.join(CONFIG_DIR, name)
        fresh = str(tmp_path / "fresh")
        path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(qm.__file__)),
                                             os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "qmeasure.cli", "run", cfg, "--out", fresh],
                       check=True, capture_output=True, env={**os.environ, "PYTHONPATH": path})

        def stable(out):
            report = read_report(out)
            del report["wall_time"]
            with open(os.path.join(out, "report.csv"), "rb") as fh:
                return report, fh.read()

        for i in range(2):
            out = str(tmp_path / f"batch{i}")
            assert main(["run", cfg, "--out", out]) == EXIT_OK
            assert stable(out) == stable(fresh)
            code, err = run_captured(["sweep", "--trials", "x", "--seed", "1", "--out", out])
            assert code == EXIT_SCHEMA and "invalid int value" in err


class TestSettingsPrecedence:
    def test_flag_beats_config_and_env(self, tmp_path):
        cfg = gaussian_config()
        cfg["tolerances"] = {"eq_tol": 1e-8}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert read_report(out)["scenario"]["tolerances"]["eq_tol"] == 1e-8
        assert main(["run", path, "--out", out, "--tol", "1e-6"]) == EXIT_OK
        assert read_report(out)["scenario"]["tolerances"]["eq_tol"] == 1e-6


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
    # the pattern by which the benchmark's determinism check strikes out wall_time
    WALL_TIME = re.compile(rb'"wall_time": [^,\n}]*')

    @staticmethod
    def stable_bytes(out_dir):
        """The whole of report.json with only its wall_time value struck out."""
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            stable, count = TestDeterminism.WALL_TIME.subn(b'"wall_time": ', fh.read())
        assert count == 1
        return stable

    def test_reports_byte_stable_modulo_wall_time(self, tmp_path):
        for cfg in (finite_process_config(), gaussian_config(),
                    {"kind": "sweep", "payload": {"dims": [2, 3], "trials": 10, "seed": 3}}):
            name = cfg["kind"] + ".json"
            path = write_config(tmp_path, cfg, name=name)
            out1 = str(tmp_path / (cfg["kind"] + "_1"))
            out2 = str(tmp_path / (cfg["kind"] + "_2"))
            assert main(["run", path, "--out", out1]) == EXIT_OK
            assert main(["run", path, "--out", out2]) == EXIT_OK
            assert self.stable_bytes(out1) == self.stable_bytes(out2)
            with open(os.path.join(out1, "report.csv"), "rb") as f1, \
                    open(os.path.join(out2, "report.csv"), "rb") as f2:
                assert f1.read() == f2.read()

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_report_is_one_sorted_key_line(self, tmp_path, name):
        # the stdlib's C encoder writes the report: one line, no indent, default separators
        cfg = os.path.join(CONFIG_DIR, name)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "report.json")) as fh:
            text = fh.read()
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True) + "\n"
        with open(cfg) as fh:
            assert report["scenario"]["payload"] == json.load(fh)["payload"]


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
    ("dims-bool", sweep_config, ("payload", "dims"), [True, 2]),
    ("constants-list", gaussian_config, ("constants",), []),
    ("model-unknown", gaussian_config, ("payload", "model"), "nope"),
    ("model-number", gaussian_config, ("payload", "model"), 5),
]


class TestBadNumbers:
    @pytest.mark.parametrize("make, path, value", [case[1:] for case in BAD_NUMBERS],
                             ids=[case[0] for case in BAD_NUMBERS])
    def test_config_number_is_schema_error(self, tmp_path, make, path, value):
        path_ = write_config(tmp_path, set_path(make(), path, value))
        code, err = run_captured(["run", path_, "--out", str(tmp_path / "out")])
        assert code == EXIT_SCHEMA
        assert "schema violation" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("report", ["edr", "precision"])
    def test_overflowing_figures_are_assertion(self, tmp_path, report):
        # the moments of an observable at 1e160 overflow; no NaN, inf or traceback escapes
        with open(os.path.join(CONFIG_DIR, "finite_luders.json")) as fh:
            cfg = json.load(fh)
        big = 1e160 * ser.matrix_from_json(cfg["payload"]["observable_a"])
        cfg["payload"].update(observable_a=ser.matrix_to_json(big), report=report)
        out = str(tmp_path / "out")
        code, err = run_captured(["run", write_config(tmp_path, cfg), "--out", out])
        assert code == EXIT_ASSERTION
        assert "numerical failure" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "report.json"))

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

    @pytest.mark.parametrize("path, value", [(("payload", "dims"), [1, 4]),
                                             (("payload", "trials"), 0)],
                             ids=["dims-below-2", "trials-zero"])
    def test_sweep_range_fault_is_assertion(self, tmp_path, path, value):
        # run_sweep raises SchemaError, itself a ValidationError, for a value
        # of the wrong type; one of the right type out of range exits 3
        path_ = write_config(tmp_path, set_path(sweep_config(), path, value))
        code, err = run_captured(["run", path_, "--out", str(tmp_path / "out")])
        assert code == EXIT_ASSERTION
        assert "validation failure" in err and "Traceback" not in err

    def test_integral_float_trials_accepted(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, sweep_config(trials=2.0))
        assert main(["run", path, "--out", out]) == EXIT_OK
        assert read_report(out)["results"]["trials"] == 2


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


def number_paths(node, prefix=()):
    """The path of every number in a config, object values and list
    elements alike (bools are not numbers)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield prefix
        return
    for key, value in items:
        yield from number_paths(value, prefix + (key,))


NOT_NUMBERS = {"true": True, "string": "1", "null": None, "nan": float("nan"),
               "inf": float("inf"), "-inf": float("-inf")}


class TestNumberLeaves:
    @pytest.mark.parametrize("bad", list(NOT_NUMBERS))
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_every_number_replaced_is_schema_error(self, tmp_path, name, bad):
        # every number of a shipped config (with its settings explicit),
        # replaced in turn by a value that is not a finite number
        paths = list(number_paths(load_fuzz_base(name)))
        assert paths
        misses = []
        for path in paths:
            cfg_path = write_config(tmp_path, set_path(load_fuzz_base(name), path, NOT_NUMBERS[bad]))
            code, err = run_captured(["run", cfg_path, "--out", str(tmp_path / "out")])
            if code != EXIT_SCHEMA or "schema violation" not in err or "Traceback" in err:
                misses.append((path, code))
        assert misses == []
