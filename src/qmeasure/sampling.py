"""Seeded random instances: states, observables, unitaries, processes.

All generators take an explicit numpy Generator so sweeps are
reproducible; rng_from derives an independent stream per (seed, branch)
pair, which keeps trial order irrelevant.
"""

from __future__ import annotations

import numpy as np

from .instruments import CPInstrument, MeasuringProcess
from .operators import (
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    Tolerances,
    ValidationError,
    _choice,
    _numbers,
    dagger,
    hermitian_part,
)

_INTERACTIONS = ("haar", "identity")


def rng_from(seed: int, *branch: int) -> np.random.Generator:
    """Deterministic generator for a seed plus branch indices."""
    return np.random.default_rng([int(seed), *map(int, branch)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix,
    with the phase convention fixed so the distribution is exact."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def random_pure_state(dim: int, rng: np.random.Generator,
                      tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return DensityOperator.pure(v, tol=tol)


def random_density_operator(dim: int, rng: np.random.Generator,
                            tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Full-rank random state: flat simplex eigenvalues in a Haar basis."""
    w = rng.dirichlet(np.ones(dim))
    u = haar_unitary(dim, rng)
    return DensityOperator(u @ np.diag(w) @ dagger(u), tol=tol)


def random_hermitian(dim: int, rng: np.random.Generator,
                     tol: Tolerances = DEFAULT_TOL) -> HermitianObservable:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianObservable(hermitian_part(g), tol=tol)


def random_measuring_process(system_dim: int, probe_dim: int, rng: np.random.Generator,
                             interaction: str = "haar", pure_probe: bool = None,
                             tol: Tolerances = DEFAULT_TOL) -> MeasuringProcess:
    """A random process: random probe state, random meter, and either a
    Haar coupling or the identity coupling (no interaction at all)."""
    if pure_probe is None:
        pure_probe = bool(rng.integers(0, 2))
    probe = (random_pure_state(probe_dim, rng, tol) if pure_probe
             else random_density_operator(probe_dim, rng, tol))
    meter = random_hermitian(probe_dim, rng, tol=tol)
    n = system_dim * probe_dim
    haar = _choice(interaction, _INTERACTIONS, "interaction") == "haar"
    u = haar_unitary(n, rng) if haar else np.eye(n, dtype=complex)
    return MeasuringProcess(probe, u, meter, tol=tol)


def random_cp_instrument(dim: int, n_outcomes: int, rng: np.random.Generator,
                         max_kraus_per_outcome: int = 2,
                         tol: Tolerances = DEFAULT_TOL) -> CPInstrument:
    """Random instrument: Gaussian Kraus seeds, stacked into one column V = W S Zh
    (SVD), normalized into a channel by its polar factor W Zh = V (V+V)^(-1/2)."""
    n_outcomes, max_kraus = _numbers((n_outcomes, max_kraus_per_outcome), "counts", integer=True)
    if min(n_outcomes, max_kraus) < 1:
        raise ValidationError("n_outcomes and max_kraus_per_outcome must be positive")
    raw, counts = [], []
    for _ in range(n_outcomes):
        counts.append(int(rng.integers(1, max_kraus + 1)))
        raw.extend(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                   for _ in range(counts[-1]))
    w, _, zh = np.linalg.svd(np.concatenate(raw), full_matrices=False)
    kraus = np.split((w @ zh).reshape(-1, dim, dim), np.cumsum(counts)[:-1])
    return CPInstrument(np.arange(n_outcomes, dtype=float), kraus, tol=tol)
