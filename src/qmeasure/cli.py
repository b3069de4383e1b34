"""Batch front end: scenario files in, JSON/CSV reports out.

    qmeasure run <config.json> --out <dir> [--hbar X] [--tol X]
    qmeasure sweep --dims 2..4 --trials N --seed S --out <dir> [--hbar X] [--tol X]

Scenario kinds and their payloads are documented in the README. Every
config value is read through the schema helpers of qmeasure.serialize.
Exit codes: 0 success, 1 I/O failure, 2 schema violation (a missing key,
a config section or payload that is not an object, an unknown kind,
model, report or interaction, or a config number that is not a finite
JSON number), 3 numerical validation failure, arithmetic overflow, or
sweep assertion failure. Apart from the wall_time field, report.json is
byte-identical across reruns of the same scenario.

Tolerance precedence: --tol flag, then the config's tolerances.eq_tol,
then the QMEASURE_TOL environment variable, then the library default.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields

from .edr import edr_ledger
from .gaussian import OZAWA_1988, VON_NEUMANN, build_model, model_edr, output_distribution
from .instruments import dilate
from .jpd import theorem2_check
from .operators import (
    DensityOperator,
    HermitianObservable,
    PhysicalConstants,
    Tolerances,
    ValidationError,
)
from .serialize import (
    SchemaError,
    _choice,
    _csv_cell,
    _number,
    _numbers,
    _require,
    edr_report_to_dict,
    gaussian_state_from_dict,
    instrument_from_dict,
    matrix_from_json,
    model_edr_to_dict,
    precision_report_to_dict,
    process_from_dict,
)
from .sweep import _INTERACTIONS, run_sweep

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_ASSERTION = 3

ENV_TOL = "QMEASURE_TOL"

KINDS = ("finite_process", "gaussian_model", "sweep")

# config sections read into a run's settings, with the dataclass of each
_SETTINGS = (("constants", PhysicalConstants), ("tolerances", Tolerances))


def _effective_settings(cfg: dict, hbar_flag, tol_flag):
    """PhysicalConstants and Tolerances of a run: each value from its flag,
    then its config section, then QMEASURE_TOL (eq_tol only), then the
    dataclass default."""
    values = {}
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            env_tol = float(env)
        except ValueError:
            raise SchemaError(f"{ENV_TOL} must be a float, got {env!r}")
        values["eq_tol"] = _number(env_tol, ENV_TOL)
    for section, cls in _SETTINGS:
        data = cfg.get(section, {})
        _require(data, what=section)
        values.update((f.name, _number(data[f.name], f.name))
                      for f in fields(cls) if f.name in data)
    for name, flag, what in (("hbar", hbar_flag, "--hbar"), ("eq_tol", tol_flag, "--tol")):
        if flag is not None:
            values[name] = _number(flag, what)
    return tuple(cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
                 for _, cls in _SETTINGS)


def _run_finite_process(payload: dict, tol):
    if "process" in payload:
        mp = process_from_dict(payload["process"], tol=tol)
    elif "instrument" in payload:
        mp = dilate(instrument_from_dict(payload["instrument"], tol=tol), tol=tol)
    else:
        raise SchemaError("finite_process payload needs 'process' or 'instrument'")
    a, b, rho = (matrix_from_json(m) for m in _require(
        payload, "observable_a", "observable_b", "state", what="finite_process payload"))
    which = _choice(payload.get("report", "edr"), ("edr", "precision"), "report")
    a, b = HermitianObservable(a, tol=tol), HermitianObservable(b, tol=tol)
    rho = DensityOperator(rho, tol=tol)
    if which == "edr":
        return edr_report_to_dict(edr_ledger(mp, a, b, rho, tol=tol)), True
    return precision_report_to_dict(theorem2_check(mp, a, rho, tol=tol)), True


def _run_gaussian_model(payload: dict, constants, tol, out_dir):
    model, obj, probe = _require(payload, "model", "object", "probe",
                                 what="gaussian_model payload")
    model = build_model(_choice(model, (VON_NEUMANN, OZAWA_1988), "model"))
    obj = gaussian_state_from_dict(obj, constants=constants, tol=tol)
    probe = gaussian_state_from_dict(probe, constants=constants, tol=tol)
    report = model_edr(model, obj, probe, constants=constants, tol=tol)
    if "grid" in payload:
        grid = _numbers(payload["grid"], "grid")
        dens = output_distribution(model, obj, probe, grid)
        with open(os.path.join(out_dir, "densities.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "density"])
            for y, d in zip(grid, dens):
                w.writerow([repr(float(y)), repr(float(d))])
    return model_edr_to_dict(report), True


def _run_sweep_kind(payload: dict, tol):
    dims, trials, seed = _require(payload, "dims", "trials", "seed", what="sweep payload")
    census, _ = run_sweep(dims=tuple(_numbers(dims, "dims", 2, integer=True)),
                          trials=_number(trials, "trials", integer=True),
                          seed=_number(seed, "seed", integer=True),
                          interaction=_choice(payload.get("interaction", "haar"), _INTERACTIONS,
                                              "interaction"),
                          tol=tol)
    return census.as_dict(), census.all_universal_hold


def run_scenario(cfg: dict, out_dir: str, hbar_flag=None, tol_flag=None) -> int:
    """Execute one scenario config and write report.json / report.csv."""
    kind, payload = _require(cfg, "kind", "payload", what="config")
    _choice(kind, KINDS, "kind")
    _require(payload, what="payload")
    constants, tol = _effective_settings(cfg, hbar_flag, tol_flag)

    start = time.perf_counter()
    if kind == "finite_process":
        results, ok = _run_finite_process(payload, tol)
    elif kind == "gaussian_model":
        os.makedirs(out_dir, exist_ok=True)
        results, ok = _run_gaussian_model(payload, constants, tol, out_dir)
    else:
        results, ok = _run_sweep_kind(payload, tol)
    wall = time.perf_counter() - start

    report = {
        "scenario": {
            "kind": kind,
            "payload": payload,
            "constants": {"hbar": constants.hbar},
            "tolerances": {"eq_tol": tol.eq_tol, "psd_tol": tol.psd_tol},
        },
        "results": results,
        "wall_time": wall,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(results))
        w.writerow([_csv_cell(v) for v in results.values()])
    if not ok:
        print("sweep found violations of universally valid relations", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _parse_dims(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        return [int(lo), int(hi)]
    except ValueError:
        raise SchemaError(f"cannot parse dims {text!r}; expected forms '3' or '2..4'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmeasure",
                                     description="Measurement statistics batch runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory for reports")
    p_run.add_argument("--hbar", type=float, default=None, help="override hbar")
    p_run.add_argument("--tol", type=float, default=None, help="override eq_tol")

    p_sweep = sub.add_parser("sweep", help="randomized universality sweep")
    p_sweep.add_argument("--dims", default="2..4", help="dimension range, e.g. 2..4")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output directory for reports")
    p_sweep.add_argument("--hbar", type=float, default=None, help="override hbar")
    p_sweep.add_argument("--tol", type=float, default=None, help="override eq_tol")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except json.JSONDecodeError as err:
                print(f"config is not valid JSON: {err}", file=sys.stderr)
                return EXIT_SCHEMA
            return run_scenario(cfg, args.out, hbar_flag=args.hbar, tol_flag=args.tol)
        cfg = {
            "kind": "sweep",
            "payload": {"dims": _parse_dims(args.dims), "trials": args.trials,
                        "seed": args.seed},
        }
        return run_scenario(cfg, args.out, hbar_flag=args.hbar, tol_flag=args.tol)
    except SchemaError as err:
        print(f"schema violation: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValidationError as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
