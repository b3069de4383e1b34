"""Batch front end: scenario files in, JSON/CSV reports out.

    qmeasure run <config.json> --out <dir> [--hbar X] [--tol X]
    qmeasure sweep --dims 2..4 --trials N --seed S --out <dir> [--hbar X] [--tol X]

Scenario kinds and their payloads are documented in the README. Exit
codes: 0 success, 1 I/O failure, 2 schema violation (including a config
number that is not a finite JSON number), 3 numerical validation failure,
arithmetic overflow, or sweep assertion failure. Apart from the wall_time
field, report.json is byte-identical across reruns of the same scenario.

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

from .edr import edr_ledger
from .gaussian import build_model, min_uncertainty_packet, model_edr, output_distribution
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
    _csv_cell,
    _number,
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

ENV_TOL = "QMEASURE_TOL"

KINDS = ("finite_process", "gaussian_model", "sweep")


def _effective_settings(cfg: dict, hbar_flag, tol_flag):
    hbar = 1.0
    eq_tol = Tolerances().eq_tol
    psd_tol = Tolerances().psd_tol
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            env_tol = float(env)
        except ValueError:
            raise SchemaError(f"{ENV_TOL} must be a float, got {env!r}")
        eq_tol = _number(env_tol, ENV_TOL)
    consts = cfg.get("constants", {})
    if consts:
        if not isinstance(consts, dict):
            raise SchemaError("constants must be an object")
        if "hbar" in consts:
            hbar = _number(consts["hbar"], "hbar")
    tols = cfg.get("tolerances", {})
    if tols:
        if not isinstance(tols, dict):
            raise SchemaError("tolerances must be an object")
        if "eq_tol" in tols:
            eq_tol = _number(tols["eq_tol"], "eq_tol")
        if "psd_tol" in tols:
            psd_tol = _number(tols["psd_tol"], "psd_tol")
    if hbar_flag is not None:
        hbar = _number(hbar_flag, "--hbar")
    if tol_flag is not None:
        eq_tol = _number(tol_flag, "--tol")
    return PhysicalConstants(hbar=hbar), Tolerances(eq_tol=eq_tol, psd_tol=psd_tol)


def _gaussian_arg(payload_entry, constants, tol):
    if not isinstance(payload_entry, dict):
        raise SchemaError("Gaussian state entries must be objects")
    if "packet" in payload_entry:
        pk = payload_entry["packet"]
        if not isinstance(pk, dict):
            raise SchemaError("packet must be an object with q, p, q1")
        for key in ("q", "p", "q1"):
            if key not in pk:
                raise SchemaError(f"packet is missing {key!r}")
        return min_uncertainty_packet(*(_number(pk[key], key) for key in ("q", "p", "q1")),
                                      constants=constants)
    return gaussian_state_from_dict(payload_entry, constants=constants, tol=tol)


def _run_finite_process(payload: dict, tol):
    if "process" in payload:
        mp = process_from_dict(payload["process"], tol=tol)
    elif "instrument" in payload:
        mp = dilate(instrument_from_dict(payload["instrument"], tol=tol), tol=tol)
    else:
        raise SchemaError("finite_process payload needs 'process' or 'instrument'")
    for key in ("observable_a", "observable_b", "state"):
        if key not in payload:
            raise SchemaError(f"finite_process payload is missing {key!r}")
    a = HermitianObservable(matrix_from_json(payload["observable_a"]), tol=tol)
    b = HermitianObservable(matrix_from_json(payload["observable_b"]), tol=tol)
    rho = DensityOperator(matrix_from_json(payload["state"]), tol=tol)
    which = payload.get("report", "edr")
    if which == "edr":
        return edr_report_to_dict(edr_ledger(mp, a, b, rho, tol=tol)), True
    if which == "precision":
        return precision_report_to_dict(theorem2_check(mp, a, rho, tol=tol)), True
    raise SchemaError(f"finite_process report must be 'edr' or 'precision', got {which!r}")


def _run_gaussian_model(payload: dict, constants, tol, out_dir):
    for key in ("model", "object", "probe"):
        if key not in payload:
            raise SchemaError(f"gaussian_model payload is missing {key!r}")
    model = build_model(str(payload["model"]))
    obj = _gaussian_arg(payload["object"], constants, tol)
    probe = _gaussian_arg(payload["probe"], constants, tol)
    report = model_edr(model, obj, probe, constants=constants)
    if "grid" in payload:
        grid = payload["grid"]
        if not isinstance(grid, list):
            raise SchemaError("grid must be a list of numbers")
        grid = [_number(x, "grid point") for x in grid]
        dens = output_distribution(model, obj, probe, grid)
        with open(os.path.join(out_dir, "densities.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "density"])
            for y, d in zip(grid, dens):
                w.writerow([repr(float(y)), repr(float(d))])
    return model_edr_to_dict(report), True


def _run_sweep_kind(payload: dict, tol):
    for key in ("dims", "trials", "seed"):
        if key not in payload:
            raise SchemaError(f"sweep payload is missing {key!r}")
    dims = payload["dims"]
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(isinstance(x, int) for x in dims)):
        raise SchemaError("dims must be [lo, hi] integers")
    interaction = payload.get("interaction", "haar")
    if interaction not in ("haar", "identity"):
        raise SchemaError("interaction must be 'haar' or 'identity'")
    trials = _number(payload["trials"], "trials", integer=True)
    seed = _number(payload["seed"], "seed", integer=True)
    census, _ = run_sweep(dims=tuple(dims), trials=trials, seed=seed,
                          interaction=interaction, tol=tol)
    return census.as_dict(), census.all_universal_hold


def run_scenario(cfg: dict, out_dir: str, hbar_flag=None, tol_flag=None) -> int:
    """Execute one scenario config and write report.json / report.csv."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    payload = cfg.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
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
