"""The four benchmark workloads.

Each workload is a closed loop with one caller. It generates the input of
op k from (seed, k) outside the timed region, times run(input) alone, and
checks the output against the oracle outside the timed region again.
Inputs are never reused across ops, so a cache keyed on an input object
or its contents cannot make a later op look faster than it is.

A workload provides:
  setup(rnd)        warm up once at every composite dimension it will use
  make_input(k)     untimed input generation for op k
  run(inp)          the timed library call(s)
  check(inp, out)   untimed output check, a list of problems (empty = ok)
  trials(inp)       random instances per op (a sweep op is a block)
  dim(inp, out)     largest composite dimension d_s*d_p the op worked on
  final_checks()    untimed determinism checks, a list of problems
  known_defects     output defects that are not wrong values: name -> count
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil

import numpy as np

import qmeasure as qm
import qmeasure.cli as qm_cli

import oracle

_SEED_STRIDE = 1_000_000  # sweep seeds are seed * stride + k, so ops never share a stream


def bench_rng(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, branch)])


def haar(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def density(n: int, rng, pure: bool) -> np.ndarray:
    if pure:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    u = haar(n, rng)
    return u @ np.diag(rng.dirichlet(np.ones(n))) @ u.conj().T


# ---------------------------------------------------------------- sweeps

class SweepWorkload:
    """run_sweep over a dims range with a Haar coupling, B trials per op."""

    def __init__(self, seed: int, dims, block: int):
        self.seed = seed
        self.dims = dims
        self.block = block
        self.first = None
        self.known_defects = {}

    def setup(self, rnd: int):
        lo, hi = self.dims
        for ds in range(lo, hi + 1):
            for dp in range(lo, hi + 1):
                rng = bench_rng(self.seed, 90, rnd, ds, dp)
                mp = qm.MeasuringProcess(qm.DensityOperator(density(dp, rng, False)), haar(ds * dp, rng),
                                         qm.HermitianObservable(hermitian(dp, rng)))
                a, b = hermitian(ds, rng), hermitian(ds, rng)
                rho = density(ds, rng, False)
                qm.edr_ledger(mp, a, b, rho)
                qm.locally_uniform_rms_error(mp, a, rho)
                qm.locally_uniform_rms_disturbance(mp, b, rho)
                qm.theorem2_check(mp, a, rho)

    def make_input(self, k: int) -> int:
        return self.seed * _SEED_STRIDE + k

    def run(self, sweep_seed: int):
        return qm.run_sweep(dims=self.dims, trials=self.block, seed=sweep_seed, collect=True)

    def trials(self, sweep_seed: int) -> int:
        return self.block

    def dim(self, sweep_seed: int, out) -> float:
        return float(np.mean([r.system_dim * r.probe_dim for r in out[1]]))

    def _regenerate(self, sweep_seed: int, t: int):
        """The inputs of one trial, drawn in run_sweep's documented order:
        dims, A, B, state, process, from rng_from(seed, trial)."""
        lo, hi = self.dims
        rng = qm.rng_from(sweep_seed, t)
        ds = int(rng.integers(lo, hi + 1))
        dp = int(rng.integers(lo, hi + 1))
        a = qm.random_hermitian(ds, rng)
        b = qm.random_hermitian(ds, rng)
        pure = bool(rng.integers(0, 2))
        rho = qm.random_pure_state(ds, rng) if pure else qm.random_density_operator(ds, rng)
        mp = qm.random_measuring_process(ds, dp, rng, interaction="haar")
        return ds, dp, a.matrix, b.matrix, rho.matrix, mp, not pure

    def check(self, sweep_seed: int, out) -> list:
        census, records = out
        problems = []
        if self.first is None:
            self.first = (sweep_seed, out)
        if len(records) != self.block or census.trials != self.block:
            return [f"sweep {sweep_seed}: {len(records)} records for {self.block} trials"]
        tallies = {"uedr_failures": 0, "oedr_failures": 0, "lu_oedr_failures": 0,
                   "heisenberg_violations": 0, "theorem2_disagreements": 0}
        for rec in records:
            what = f"sweep {sweep_seed} trial {rec.trial}"
            ds, dp, a, b, rho, mp, full_rank = self._regenerate(sweep_seed, rec.trial)
            if (rec.system_dim, rec.probe_dim) != (ds, dp):
                problems.append(f"{what}: dims {(rec.system_dim, rec.probe_dim)} != {(ds, dp)}")
                continue
            ref = oracle.edr_oracle(oracle.process_moments(mp.unitary, mp.probe_state.matrix,
                                                           mp.meter.matrix, ds), a, b, rho)
            problems += oracle.compare_edr(dataclasses.asdict(rec.report), ref, what)
            problems += _check_locally_uniform(rec, ref, what)
            problems += _check_precision(rec.precision, ref, full_rank, what)
            tallies["uedr_failures"] += not rec.report.uedr_holds
            tallies["oedr_failures"] += not rec.report.oedr_holds
            tallies["lu_oedr_failures"] += not rec.lu_oedr_holds
            tallies["heisenberg_violations"] += not rec.report.heisenberg_holds
            tallies["theorem2_disagreements"] += not rec.precision.consistent
        counted = census.as_dict()
        for key, value in tallies.items():
            if counted[key] != value:
                problems.append(f"sweep {sweep_seed}: census {key}={counted[key]}, records say {value}")
        if not census.all_universal_hold:
            problems.append(f"sweep {sweep_seed}: universal relation reported violated {counted}")
        return problems

    def final_checks(self) -> list:
        """Same seed, same census and records."""
        if self.first is None:
            return ["sweep: no op completed, nothing to compare"]
        sweep_seed, (census, records) = self.first
        census2, records2 = self.run(sweep_seed)
        if census2.as_dict() != census.as_dict() or records2 != records:
            return [f"sweep {sweep_seed}: rerun with the same seed gave a different census"]
        return []


def _check_locally_uniform(rec, ref: dict, what: str) -> list:
    """sup over the cyclic subspace dominates the value in the state, and
    the locally uniform relation is computed from the reported figures."""
    problems = []
    sa, sb = ref["_scale"]["epsilon"], ref["_scale"]["eta"]
    if rec.lu_epsilon < ref["epsilon"] - oracle.RTOL * sa:
        problems.append(f"{what}: lu_epsilon {rec.lu_epsilon} < epsilon {ref['epsilon']}")
    if rec.lu_eta < ref["eta"] - oracle.RTOL * sb:
        problems.append(f"{what}: lu_eta {rec.lu_eta} < eta {ref['eta']}")
    lhs = rec.lu_epsilon * rec.lu_eta + rec.lu_epsilon * ref["sigma_b"] + ref["sigma_a"] * rec.lu_eta
    ab = ref["_scale_ab"]
    if abs(lhs - rec.lu_oedr_lhs) > oracle.RTOL * ab:
        problems.append(f"{what}: lu_oedr_lhs {rec.lu_oedr_lhs} != {lhs}")
    gap = lhs - (ref["robertson"] - oracle.FLAG_SLACK)
    if abs(gap) > oracle.RTOL * ab and rec.lu_oedr_holds != (gap >= 0):
        problems.append(f"{what}: lu_oedr_holds disagrees with margin {gap:.3e}")
    return problems


def _check_precision(prec, ref: dict, full_rank: bool, what: str) -> list:
    """The four flags agree; a non-zero eps rules precision out, and for a
    full-rank state a zero eps rules it in."""
    flags = (prec.strong_precise, prec.weak_precise, prec.eps_zero_on_cyclic,
             prec.prob_repro_on_cyclic)
    expected = oracle.precision_expected(ref)
    if expected is True and not full_rank:
        expected = None
    if len(set(flags)) != 1:
        return [f"{what}: precision flags disagree {flags}"]
    if expected is not None and flags[0] != expected:
        return [f"{what}: precision flags {flags}, oracle expects {expected}"]
    return []


# ---------------------------------------------------- instrument round trip

class InstrumentRoundtrip:
    """instrument_from_process -> dilate -> edr_ledger on a random process
    with d_s = d_p = d and a mixed probe, d cycling through 4, 5, 6."""

    DIMS = (4, 5, 6)

    def __init__(self, seed: int):
        self.seed = seed
        self.known_defects = {}

    def _input(self, *branch):
        d = self.DIMS[branch[-1] % len(self.DIMS)]
        rng = bench_rng(self.seed, *branch)
        u, rho0, meter = haar(d * d, rng), density(d, rng, False), hermitian(d, rng)
        a, b = hermitian(d, rng), hermitian(d, rng)
        rho = density(d, rng, pure=bool((branch[-1] // len(self.DIMS)) % 2))
        mp = qm.MeasuringProcess(qm.DensityOperator(rho0), u, qm.HermitianObservable(meter))
        return {"d": d, "u": u, "rho0": rho0, "meter": meter, "a": a, "b": b, "rho": rho,
                "mp": mp, "A": qm.HermitianObservable(a), "B": qm.HermitianObservable(b),
                "state": qm.DensityOperator(rho)}

    def setup(self, rnd: int):
        for k in range(len(self.DIMS)):
            self.run(self._input(91, rnd, k))

    def make_input(self, k: int):
        return self._input(2, k)

    def run(self, inp):
        inst = qm.instrument_from_process(inp["mp"])
        dil = qm.dilate(inst)
        return inst, dil, qm.edr_ledger(dil, inp["A"], inp["B"], inp["state"])

    def trials(self, inp) -> int:
        return 1

    def dim(self, inp, out) -> int:
        dil = out[1]
        return dil.system_dim * dil.probe_dim

    def check(self, inp, out) -> list:
        inst, dil, report = out
        d = inp["d"]
        what = f"roundtrip d={d}"
        # the dilated process realizes the same instrument, so its ledger
        # equals the ledger of the original process
        ref = oracle.edr_oracle(oracle.process_moments(inp["u"], inp["rho0"], inp["meter"], d),
                                inp["a"], inp["b"], inp["rho"])
        problems = oracle.compare_edr(dataclasses.asdict(report), ref, what)
        values = np.linalg.eigvalsh(oracle.herm(inp["meter"]))
        if len(inst.outcomes) != d or np.abs(np.array(inst.outcomes) - values).max() > 1e-8:
            problems.append(f"{what}: outcomes {inst.outcomes} are not the meter spectrum {values}")
            return problems
        if dil.system_dim != d:
            return problems + [f"{what}: dilated system_dim {dil.system_dim} != {d}"]
        p_inst = oracle.instrument_probabilities(inst.outcomes, inst.kraus, inp["rho"])
        p_dil = oracle.meter_probabilities(dil.unitary, dil.probe_state.matrix, dil.meter.matrix,
                                           inp["rho"], d, inst.outcomes)
        p_orig = oracle.meter_probabilities(inp["u"], inp["rho0"], inp["meter"], inp["rho"], d,
                                            inst.outcomes)
        for name, (p, unmatched) in (("dilated meter", p_dil), ("original meter", p_orig)):
            gap = unmatched + max(abs(p[m] - p_inst[m]) for m in p_inst)
            if gap > 1e-8:
                problems.append(f"{what}: {name} statistics differ from the instrument by {gap:.2e}")
        return problems

    def final_checks(self) -> list:
        return []


# ------------------------------------------------------------ CLI scenarios

_WALL = re.compile(rb'"wall_time": [^,\n}]*')


def _mat(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


class CliScenarios:
    """qmeasure.cli.main(["run", cfg, "--out", dir]) over a fixed cycle of
    generated scenario kinds. The Gaussian kinds are the fastest 40 % of
    the cycle, the EDR kinds the next 40 % and the precision kinds the
    slowest 20 %, so the median falls inside the EDR band and p90 inside
    the precision band rather than on a boundary between two bands."""

    CYCLE = ("gauss_vn", "proc_edr", "gauss_oz", "inst_edr", "proc_precision",
             "gauss_vn", "inst_edr", "gauss_oz", "proc_edr", "inst_precision")
    SLOTS = 16  # config/output slots reused round-robin

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work = work_dir
        self.first_of_kind = {}
        self.known_defects = {}

    # -- generation

    def _gauss_entry(self, rng, hbar, packet: bool):
        q, p = rng.uniform(-1.0, 1.0, size=2)
        if packet:
            q1 = float(rng.uniform(0.3, 2.0))
            entry = {"packet": {"q": float(q), "p": float(p), "q1": q1}}
            return entry, oracle.packet_moments(float(q), float(p), q1, hbar)
        vqq = float(rng.uniform(0.2, 2.0))
        cqp = float(rng.uniform(-0.3, 0.3))
        vpp = (hbar * hbar / 4.0 + cqp * cqp) / vqq * float(rng.uniform(1.05, 3.0))
        cov = [[vqq, cqp], [cqp, vpp]]
        return {"mean": [float(q), float(p)], "cov": cov}, (np.array([q, p]), np.array(cov))

    def _scenario(self, kind: str, rng, k: int):
        hbar = float(rng.uniform(0.5, 2.0))
        cfg = {"kind": None, "payload": {}, "constants": {"hbar": hbar}}
        info = {"kind": kind, "hbar": hbar}
        if kind.startswith("gauss"):
            model = "von_neumann" if kind == "gauss_vn" else "ozawa_1988"
            obj, info["obj"] = self._gauss_entry(rng, hbar, packet=kind == "gauss_vn")
            probe, info["probe"] = self._gauss_entry(rng, hbar, packet=kind != "gauss_vn")
            grid = np.linspace(-3.0, 3.0, 9 + 4 * (k % 3)).tolist()
            cfg["kind"] = "gaussian_model"
            cfg["payload"] = {"model": model, "object": obj, "probe": probe, "grid": grid}
            info["model"], info["grid"] = model, grid
            return cfg, info
        cfg["kind"] = "finite_process"
        ds, dp = ((2, 2), (2, 3), (3, 2), (3, 3))[(k // len(self.CYCLE)) % 4]
        a, b = hermitian(ds, rng), hermitian(ds, rng)
        precision = kind.endswith("precision")
        rho = density(ds, rng, pure=not precision and bool(rng.integers(0, 2)))
        payload = {"observable_a": _mat(a), "observable_b": _mat(b), "state": _mat(rho),
                   "report": "precision" if precision else "edr"}
        if kind.startswith("proc"):
            u, rho0, meter = haar(ds * dp, rng), density(dp, rng, bool(rng.integers(0, 2))), hermitian(dp, rng)
            payload["process"] = {"system_dim": ds, "probe_dim": dp, "probe_state": _mat(rho0),
                                  "unitary": _mat(u), "meter": _mat(meter)}
            info["moments"] = oracle.process_moments(u, rho0, meter, ds)
            info["n"] = ds * dp
        else:
            if precision:  # Lueders instrument of A: precise by construction
                w, v = np.linalg.eigh(a)
                outcomes = [float(x) for x in w]
                kraus = [[np.outer(v[:, i], v[:, i].conj())] for i in range(ds)]
            else:
                outcomes = sorted(float(x) for x in rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 4))))
                raw = [[rng.standard_normal((ds, ds)) + 1j * rng.standard_normal((ds, ds))
                        for _ in range(int(rng.integers(1, 3)))] for _ in outcomes]
                total = sum(g.conj().T @ g for ops in raw for g in ops)
                w, v = np.linalg.eigh(oracle.herm(total))
                inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
                kraus = [[g @ inv_sqrt for g in ops] for ops in raw]
            payload["instrument"] = {"outcomes": outcomes, "kraus": [[_mat(k) for k in ops] for ops in kraus]}
            info["moments"] = oracle.instrument_moments(outcomes, kraus)
            info["n"] = ds * sum(len(ops) for ops in kraus)
        cfg["payload"] = payload
        info.update(a=a, b=b, rho=rho, report=payload["report"])
        return cfg, info

    def _write(self, cfg: dict, name: str):
        path = os.path.join(self.work, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(self.work, name + ".out")
        shutil.rmtree(out, ignore_errors=True)
        return path, out

    def _input(self, k: int, *branch):
        kind = self.CYCLE[k % len(self.CYCLE)]
        cfg, info = self._scenario(kind, bench_rng(self.seed, *branch, k), k)
        path, out = self._write(cfg, f"slot{k % self.SLOTS}")
        info.update(cfg=cfg, path=path, out=out)
        return info

    # -- workload interface

    def setup(self, rnd: int):
        os.makedirs(self.work, exist_ok=True)
        for k in range(4 * len(self.CYCLE)):  # every kind at every (d_s, d_p)
            self.run(self._input(k, 92, rnd))

    def make_input(self, k: int):
        return self._input(k, 3)

    def run(self, inp) -> int:
        return qm_cli.main(["run", inp["path"], "--out", inp["out"]])

    def trials(self, inp) -> int:
        return 1

    def dim(self, inp, code):
        return inp.get("n")  # None for the Gaussian kinds, which have no composite space

    def check(self, inp, code) -> list:
        what = f"cli {inp['kind']} {os.path.basename(inp['path'])}"
        if code != 0:
            return [f"{what}: exit code {code}"]
        self.first_of_kind.setdefault(inp["kind"], inp)
        try:
            with open(os.path.join(inp["out"], "report.json")) as fh:
                report = json.load(fh)
            with open(os.path.join(inp["out"], "report.csv")) as fh:
                csv_lines = fh.read().splitlines()
        except (OSError, ValueError) as err:
            return [f"{what}: cannot read reports: {err}"]
        problems = _check_echo(report, inp, what)
        results = report.get("results", {})
        csv_problems, reprs = _check_csv(csv_lines, results, what)
        problems += csv_problems
        for col in reprs:
            key = f"report.csv {col} written as a numpy repr"
            self.known_defects[key] = self.known_defects.get(key, 0) + 1
        if inp["kind"].startswith("gauss"):
            ref = oracle.gaussian_oracle(inp["model"], inp["obj"], inp["probe"], inp["hbar"])
            problems += oracle.compare_gaussian(results, ref, what)
            problems += _check_densities(os.path.join(inp["out"], "densities.csv"), inp["grid"],
                                         ref["_meter"], what)
            return problems
        ref = oracle.edr_oracle(inp["moments"], inp["a"], inp["b"], inp["rho"])
        if inp["report"] == "edr":
            rep = {("sigma_a" if k == "sigma_A" else "sigma_b" if k == "sigma_B" else k): v
                   for k, v in results.items()}
            return problems + oracle.compare_edr(rep, ref, what)
        flags = [results.get(k) for k in ("strong_precise", "weak_precise", "eps_zero_on_cyclic",
                                           "prob_repro_on_cyclic")]
        expected = oracle.precision_expected(ref)
        if len(set(flags)) != 1 or (expected is not None and flags[0] != expected):
            problems.append(f"{what}: precision flags {flags}, oracle expects {expected}")
        return problems

    def final_checks(self) -> list:
        """Two runs of one input per kind give byte-identical reports,
        wall_time aside."""
        problems = []
        if len(self.first_of_kind) != len(set(self.CYCLE)):
            problems.append(f"cli: only kinds {sorted(self.first_of_kind)} completed")
        for kind, inp in sorted(self.first_of_kind.items()):
            path, out = self._write(inp["cfg"], f"det-{kind}")
            out1, out2 = out + "-1", out + "-2"
            codes = [qm_cli.main(["run", path, "--out", o]) for o in (out1, out2)]
            if codes != [0, 0]:
                problems.append(f"cli determinism {kind}: exit codes {codes}")
                continue
            for name in sorted(os.listdir(out1)):
                with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
                    b1, b2 = f1.read(), f2.read()
                if name == "report.json":
                    b1, b2 = _WALL.sub(b"", b1), _WALL.sub(b"", b2)
                if b1 != b2:
                    problems.append(f"cli determinism {kind}: {name} differs between two runs")
        return problems


def _check_echo(report: dict, inp: dict, what: str) -> list:
    scen = report.get("scenario", {})
    want = {"kind": inp["cfg"]["kind"], "payload": json.loads(json.dumps(inp["cfg"]["payload"])),
            "constants": {"hbar": inp["hbar"]}, "tolerances": {"eq_tol": 1e-9, "psd_tol": -1e-10}}
    if scen != want:
        return [f"{what}: scenario echo differs from the input"]
    if not isinstance(report.get("wall_time"), float):
        return [f"{what}: wall_time missing"]
    return []


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)$")


def _check_csv(lines: list, results: dict, what: str):
    """report.csv holds the report.json results. Returns (problems,
    columns written as a numpy repr such as np.float64(1.5)): qmeasure's
    serializer writes uedr_lhs that way under numpy 2. That is a format
    defect, tallied and reported apart, not a wrong value."""
    if len(lines) != 2:
        return [f"{what}: report.csv has {len(lines)} lines"], []
    cols, cells = lines[0].split(","), lines[1].split(",")
    if len(cols) != len(cells) or set(cols) != set(results):
        return [f"{what}: report.csv columns {cols} do not match results"], []
    reprs = []
    for col, cell in zip(cols, cells):
        v = results[col]
        wrapped = _NUMPY_REPR.match(cell)
        if wrapped:
            reprs.append(col)
            cell = wrapped.group(1)
        try:
            ok = (cell == ("true" if v else "false")) if isinstance(v, bool) else \
                (cell == v) if isinstance(v, str) else float(cell) == float(v)
        except ValueError:
            ok = False
        if not ok:
            return [f"{what}: report.csv {col}={cell} but report.json has {v!r}"], reprs
    return [], reprs


def _check_densities(path: str, grid: list, meter, what: str) -> list:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return [f"{what}: {err}"]
    if lines[:1] != ["y,density"] or len(lines) != len(grid) + 1:
        return [f"{what}: densities.csv has the wrong shape"]
    mean, var = meter
    for line, y in zip(lines[1:], grid):
        ys, ds = (float(x) for x in line.split(","))
        want = oracle.normal_density(y, mean, var)
        if ys != y or abs(ds - want) > 1e-9 * max(1.0, want):
            return [f"{what}: density at {y} is {ds}, oracle {want}"]
    return []


def make_workload(name: str, seed: int, work_dir: str):
    if name == "sweep-small":
        return SweepWorkload(seed, (2, 4), block=10)
    if name == "sweep-large":
        return SweepWorkload(seed, (6, 8), block=3)
    if name == "instrument-roundtrip":
        return InstrumentRoundtrip(seed)
    if name == "cli-scenarios":
        return CliScenarios(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-small", "sweep-large", "instrument-roundtrip", "cli-scenarios")
# the refclock.py kernel that tracks each workload's speed best
REF_KERNEL = {"sweep-small": "interp", "sweep-large": "blas", "instrument-roundtrip": "blas",
              "cli-scenarios": "interp"}
