"""Batch front end: scenario files in, JSON/CSV reports out.

    qmeasure run <config.json> --out <dir> [--hbar X] [--tol X]
    qmeasure sweep --dims 2..4 --trials N --seed S --out <dir> [--hbar X] [--tol X]

Scenario kinds and their payloads are documented in the README. Every config
value is read through the readers of qmeasure.operators and
qmeasure.serialize, a sweep payload's by run_sweep. Exit codes: 0 success, 1
I/O failure, 2 SchemaError (a missing key, a config section or payload that
is not an object, an unknown kind, model, report or interaction, or a config
number that is not a finite JSON number), 3 any other ValidationError
(SchemaError subclasses it and is caught first), numerical failure (float
overflow, NaN, LinAlgError) or sweep assertion failure. report.json is one
line of sorted-key JSON, byte-identical across reruns apart from its
wall_time; unindented, so the stdlib's C encoder writes it (any indent takes
the far slower Python encoder). `python -m json.tool` pretty-prints it.

main(argv) runs the same commands in-process and returns the exit code,
a usage error (argparse's 2, or 0 for --help) included; the console
script exits with it. main builds its parser once per process.

Tolerance precedence: --tol flag, then the config's tolerances.eq_tol,
then the library default. The resolved Tolerances build every process,
instrument, observable and state of the run, and each figure is judged
under the Tolerances of the process or instrument it reads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .edr import edr_ledger
from .gaussian import build_model, model_edr, output_distribution
from .jpd import theorem2_check
from .operators import (
    DensityOperator,
    HermitianObservable,
    PhysicalConstants,
    SchemaError,
    Tolerances,
    ValidationError,
    _choice,
    _numbers,
)
from .serialize import (
    _csv_cell,
    _require,
    edr_report_to_dict,
    gaussian_state_from_dict,
    instrument_from_dict,
    matrix_from_json,
    model_edr_to_dict,
    precision_report_to_dict,
    process_from_dict,
)
from .sweep import run_sweep

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_ASSERTION = 3

KINDS = ("finite_process", "gaussian_model", "sweep")

# config sections read into a run's settings, with the dataclass of each
_SETTINGS = (("constants", PhysicalConstants), ("tolerances", Tolerances))


def _effective_settings(cfg: dict, hbar_flag, tol_flag):
    """PhysicalConstants and Tolerances of a run: each value from its flag,
    then its config section, then the dataclass default; each dataclass
    reads its values."""
    values = {}
    for section, cls in _SETTINGS:
        data = cfg.get(section, {})
        _require(data, what=section)
        values.update((f.name, data[f.name]) for f in fields(cls) if f.name in data)
    for name, flag in (("hbar", hbar_flag), ("eq_tol", tol_flag)):
        if flag is not None:
            values[name] = flag
    return tuple(cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
                 for _, cls in _SETTINGS)


def _run_finite_process(payload: dict, tol):
    if "process" in payload:
        source = process_from_dict(payload["process"], tol=tol)
    elif "instrument" in payload:
        source = instrument_from_dict(payload["instrument"], tol=tol)
    else:
        raise SchemaError("finite_process payload needs 'process' or 'instrument'")
    a, b, rho = (matrix_from_json(m) for m in _require(
        payload, "observable_a", "observable_b", "state", what="finite_process payload"))
    which = _choice(payload.get("report", "edr"), ("edr", "precision"), "report")
    a, b = HermitianObservable(a, tol=tol), HermitianObservable(b, tol=tol)
    rho = DensityOperator(rho, tol=tol)
    if which == "edr":
        return edr_report_to_dict(edr_ledger(source, a, b, rho)), True
    return precision_report_to_dict(theorem2_check(source, a, rho)), True


def _run_gaussian_model(payload: dict, constants, tol, out_dir):
    model, obj, probe = _require(payload, "model", "object", "probe",
                                 what="gaussian_model payload")
    model = build_model(model)
    obj = gaussian_state_from_dict(obj, constants=constants, tol=tol)
    probe = gaussian_state_from_dict(probe, constants=constants, tol=tol)
    report = model_edr(model, obj, probe, tol=tol)
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
    census, _ = run_sweep(*_require(payload, "dims", "trials", "seed", what="sweep payload"),
                          interaction=payload.get("interaction", "haar"), tol=tol)
    return census.as_dict(), census.all_universal_hold


def run_scenario(cfg: dict, out_dir: str, hbar_flag=None, tol_flag=None) -> int:
    """Execute one scenario config and write report.json / report.csv."""
    kind, payload = _require(cfg, "kind", "payload", what="config")
    _choice(kind, KINDS, "kind")
    _require(payload, what="payload")
    constants, tol = _effective_settings(cfg, hbar_flag, tol_flag)

    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):  # no inf or NaN reaches a report
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
            "constants": asdict(constants),
            "tolerances": asdict(tol),
        },
        "results": results,
        "wall_time": wall,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with, built on first use and kept for the
    process: parse_args keeps no state between calls, each returns a new
    Namespace."""
    parser = argparse.ArgumentParser(prog="qmeasure",
                                     description="Measurement statistics batch runner")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", required=True, help="output directory for reports")
    shared.add_argument("--hbar", type=float, default=None, help="override hbar")
    shared.add_argument("--tol", type=float, default=None, help="override eq_tol")

    p_run = sub.add_parser("run", parents=[shared], help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")

    p_sweep = sub.add_parser("sweep", parents=[shared], help="randomized universality sweep")
    p_sweep.add_argument("--dims", default="2..4", help="dimension range, e.g. 2..4")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code; a usage error
    returns argparse's code (2, or 0 for --help) instead of exiting."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as stop:
        return stop.code
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
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
