"""Randomized universality sweeps over measuring-process instances.

Each trial draws dimensions, observables, a state, and a process from a
stream derived from (seed, trial index), evaluates the error-disturbance
ledger, the locally uniform variant, and the four-way precision check,
and tallies violations. The universally valid relations must never fail;
the Heisenberg-type product may, and the census counts how often.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .edr import EDRReport, _Scenario
from .jpd import PrecisionReport, _precision_report
from .operators import DEFAULT_TOL, Tolerances, ValidationError, _choice, _number, _numbers
from .sampling import (
    _INTERACTIONS,
    random_density_operator,
    random_hermitian,
    random_measuring_process,
    random_pure_state,
    rng_from,
)
from .serialize import _to_dict

# largest dimension a sweep draws, so that n = d_s * d_p <= 1024
MAX_DIM = 32


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    system_dim: int
    probe_dim: int
    report: EDRReport
    lu_epsilon: float
    lu_eta: float
    lu_oedr_lhs: float
    lu_oedr_holds: bool
    precision: PrecisionReport


@dataclass(frozen=True)
class SweepCensus:
    trials: int
    uedr_failures: int
    oedr_failures: int
    lu_oedr_failures: int
    heisenberg_violations: int
    theorem2_disagreements: int

    def as_dict(self) -> dict:
        return _to_dict(self)

    @property
    def all_universal_hold(self) -> bool:
        return (self.uedr_failures == 0 and self.oedr_failures == 0
                and self.lu_oedr_failures == 0 and self.theorem2_disagreements == 0)


def run_sweep(dims=(2, 4), trials: int = 100, seed: int = 0, interaction: str = "haar",
              tol: Tolerances = DEFAULT_TOL, collect: bool = False):
    """Run a seeded sweep; returns (census, records) with records None
    unless collect is set. Dimensions are drawn from dims = (lo, hi) with
    2 <= lo <= hi <= MAX_DIM. dims is two integers, and trials and seed
    are integers (2.0 counts as 2, a bool does not); a value of the wrong
    type raises SchemaError, one out of range ValidationError."""
    lo, hi = _numbers(dims, "dims", 2, integer=True)
    trials = _number(trials, "trials", integer=True)
    seed = _number(seed, "seed", integer=True)
    _choice(interaction, _INTERACTIONS, "interaction")
    if lo < 2 or hi < lo or hi > MAX_DIM:
        raise ValidationError(f"dims range must satisfy 2 <= lo <= hi <= {MAX_DIM}, got {dims}")
    if trials < 1:
        raise ValidationError("trials must be positive")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    tally = dict.fromkeys([f.name for f in fields(SweepCensus)][1:], 0)  # the failure counts, in field order
    records = [] if collect else None
    for t in range(trials):
        rng = rng_from(seed, t)
        ds = int(rng.integers(lo, hi + 1))
        dp = int(rng.integers(lo, hi + 1))
        a = random_hermitian(ds, rng, tol=tol)
        b = random_hermitian(ds, rng, tol=tol)
        rho = (random_pure_state(ds, rng, tol) if rng.integers(0, 2)
               else random_density_operator(ds, rng, tol))
        mp = random_measuring_process(ds, dp, rng, interaction=interaction, tol=tol)

        ctx = _Scenario(mp, a, b, rho)
        report = ctx.ledger()
        lu_eps = ctx.locally_uniform("a")
        lu_eta = ctx.locally_uniform("b")
        precision = _precision_report(ctx)
        lu_lhs = lu_eps * lu_eta + lu_eps * report.sigma_b + report.sigma_a * lu_eta
        lu_holds = ctx.holds(lu_lhs, report.robertson)

        for key, ok in zip(tally, (report.uedr_holds, report.oedr_holds, lu_holds,
                                   report.heisenberg_holds, precision.consistent)):
            tally[key] += not ok
        if collect:
            records.append(TrialRecord(
                trial=t, system_dim=ds, probe_dim=dp, report=report,
                lu_epsilon=lu_eps, lu_eta=lu_eta, lu_oedr_lhs=lu_lhs,
                lu_oedr_holds=lu_holds, precision=precision,
            ))
    return SweepCensus(trials=trials, **tally), records
