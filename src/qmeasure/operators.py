"""Finite-dimensional operator algebra for measurement statistics.

States are density operators, observables are Hermitian matrices, and
outcome statistics come from spectral measures via the Born rule.
Composite spaces are ordered system-first: an operator X on the system
and Y on the probe combine as kron(X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An operator, state, or parameter violates a structural invariant."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the library.

    eq_tol bounds equality checks: absolutely for dimensionless quantities
    (probabilities, projector and effect sums, ranks, residuals of raw
    input), relatively (_slack) for a quantity with the units of an
    observable. psd_tol is the floor for eigenvalues of nominally positive
    matrices; it is zero or slightly negative.
    """

    eq_tol: float = 1e-9
    psd_tol: float = -1e-10

    def __post_init__(self):
        if not self.eq_tol > 0:
            raise ValidationError("eq_tol must be positive")
        if not self.psd_tol <= 0:
            raise ValidationError("psd_tol must be <= 0")


@dataclass(frozen=True)
class PhysicalConstants:
    """Runtime physical constants. hbar defaults to 1."""

    hbar: float = 1.0

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive")

    @property
    def h(self) -> float:
        return 2.0 * np.pi * self.hbar


DEFAULT_TOL = Tolerances()
DEFAULT_CONSTANTS = PhysicalConstants()
_EPS = float(np.finfo(float).eps)


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite square complex ndarray (copied, read-only)."""
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"operator must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("operator entries must be finite")
    arr.setflags(write=False)
    return arr


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator of a stack."""
    return op.conj().swapaxes(-1, -2)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def hermitian_part(op: np.ndarray) -> np.ndarray:
    """(X + X+)/2 of an operator, or of each operator of a stack."""
    return 0.5 * (op + dagger(op))


def is_hermitian(op, tol: Tolerances = DEFAULT_TOL) -> bool:
    op = np.asarray(op, dtype=complex)
    return float(np.abs(op - dagger(op)).max()) <= tol.eq_tol


def operator_distance(x, y) -> float:
    """Max-abs entrywise distance, the norm used for operator equality checks."""
    return float(np.abs(np.asarray(x) - np.asarray(y)).max())


def _slack(tol: Tolerances, scale: float) -> float:
    """eq_tol times the scale of a quantity carrying the units of an
    observable: the one rule by which such a quantity counts as zero. An
    eq_tol below machine eps counts as eps, the rounding level."""
    return max(tol.eq_tol, _EPS) * scale


def _check_dims(*ops):
    """Raise ValidationError unless the operators (or stacks of operators)
    act on one space."""
    if len({op.shape[-2:] for op in ops}) > 1:
        raise ValidationError("dimension mismatch: " + " vs ".join(str(op.shape) for op in ops))


class _Immutable:
    """Attributes are set once, through _init_fields in __init__; setting
    or deleting one afterwards raises AttributeError."""

    def _init_fields(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class HermitianObservable(_Immutable):
    """A self-adjoint operator, immutable.

    The stored matrix is the exact Hermitian part of the input, read-only.
    Construction fails if the input deviates from Hermiticity by more
    than tol.eq_tol in max-abs norm.
    """

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOL):
        op = as_operator(matrix)
        if not is_hermitian(op, tol):
            raise ValidationError("observable must be Hermitian within eq_tol")
        sym = hermitian_part(op)
        sym.setflags(write=False)
        self._init_fields(matrix=sym, dim=sym.shape[0])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __repr__(self):
        return f"HermitianObservable(dim={self.dim})"


class DensityOperator(_Immutable):
    """A quantum state: Hermitian, unit trace, eigenvalues >= psd_tol.
    Immutable, with a read-only matrix."""

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOL):
        op = as_operator(matrix)
        if not is_hermitian(op, tol):
            raise ValidationError("density operator must be Hermitian within eq_tol")
        if abs(np.trace(op).real - 1.0) > tol.eq_tol or abs(np.trace(op).imag) > tol.eq_tol:
            raise ValidationError(f"density operator must have unit trace, got {np.trace(op)}")
        sym = hermitian_part(op)
        lo = float(np.linalg.eigvalsh(sym).min())
        if lo < tol.psd_tol:
            raise ValidationError(f"density operator has negative eigenvalue {lo}")
        sym.setflags(write=False)
        self._init_fields(matrix=sym, dim=sym.shape[0])

    @classmethod
    def pure(cls, vector, tol: Tolerances = DEFAULT_TOL) -> "DensityOperator":
        """Rank-one state |v><v| from a (not necessarily normalized) vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm <= tol.eq_tol:
            raise ValidationError("cannot normalize a (near-)zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), tol=tol)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, (HermitianObservable, DensityOperator)):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _as_observable_matrix(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix of an observable argument, a raw array validated as
    HermitianObservable validates it."""
    return (a if isinstance(a, HermitianObservable) else HermitianObservable(a, tol)).matrix


def _as_state_matrix(rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix of a state argument, a raw array validated as DensityOperator
    validates it."""
    return (rho if isinstance(rho, DensityOperator) else DensityOperator(rho, tol)).matrix


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with orthogonal spectral projectors,
    stacked in one read-only (k, n, n) array.

    sum(projectors) = identity and sum(a_i * P_i) reconstructs the operator.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.projectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("i,iab->ab", self.eigenvalues, self.projectors)


def _cluster_labels(values, tol: Tolerances) -> np.ndarray:
    """Cluster index of each of a sorted run of values.

    A new cluster starts wherever the gap to the previous value exceeds
    the slack of the run's largest |value|, so a chain of values each
    within that slack of the next is one cluster however far it spans.
    """
    v = np.asarray(values, dtype=float)
    labels = np.zeros(len(v), dtype=int)
    np.cumsum(v[1:] - v[:-1] > _slack(tol, max(abs(v[0]), abs(v[-1]))), out=labels[1:])
    return labels


def spectral_decompose(a, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalue clustering.

    Eigenvalues closer than eq_tol times the spectral radius
    (consecutively, after sorting) are merged into a single spectral value
    whose projector spans the combined eigenspace and whose value is the
    weighted mean of the cluster.
    """
    mat = _as_observable_matrix(a, tol)
    return _spectral_measure(mat, *np.linalg.eigh(mat), tol)


def _spectral_measure(mat, w, v, tol: Tolerances, copies: int = 1) -> SpectralDecomposition:
    """The decomposition of mat from eigenpairs: w ascending, and the
    columns of v its eigenvectors, copies consecutive ones per value of w.
    One projector per cluster of w, summed from its block of v and valued
    at the cluster mean of w; raises unless it reconstructs mat."""
    labels = _cluster_labels(w, tol)
    bounds = np.searchsorted(labels, np.arange(labels[-1] + 2)).tolist()
    values = np.empty(len(bounds) - 1)
    projectors = np.empty(values.shape + mat.shape, dtype=complex)
    for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = v[:, copies * start:copies * stop]
        values[i] = w[start:stop].sum() / (stop - start)
        projectors[i] = hermitian_part(block @ dagger(block))
    dec = SpectralDecomposition(values, projectors)
    if operator_distance(dec.reconstruct(), mat) > 1e3 * _slack(tol, float(np.abs(w).max())):
        raise ValidationError("spectral reconstruction failed")
    return dec


def expectation(x, rho) -> complex:
    """Tr[X rho]. Complex in general; real within eq_tol for Hermitian X."""
    xm = _as_matrix(x)
    rm = _as_matrix(rho)
    _check_dims(xm, rm)
    return complex(np.trace(xm @ rm))


def std_dev(a, rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Standard deviation sqrt(Tr[(A - <A>)^2 rho]) of an observable in a state.

    The centered moment is summed over the spectrum of the state,
    sum_j w_j |(A - <A>) phi_j|^2, dropping weights w_j at or below
    dim * machine eps, the rounding level of a unit-trace matrix. Taken
    entrywise, as <A^2> - <A>^2 or Tr[(A - <A>)^2 rho], it keeps that
    rounding and returns about sqrt(machine eps) times the operator
    scale on an eigenstate.
    """
    rm = _as_state_matrix(rho, tol)
    return _spectral_std_dev(_as_observable_matrix(a, tol), rm, np.linalg.eigh(rm))


def _spectral_std_dev(am: np.ndarray, rm: np.ndarray, rho_spectrum) -> float:
    """std_dev of validated matrices, given the eigh pair (w, v) of rm."""
    w, v = rho_spectrum
    centered = am - expectation(am, rm).real * np.eye(am.shape[0])
    keep = w > am.shape[0] * np.finfo(float).eps
    return float(np.sqrt(np.sum(w[keep] * np.sum(np.abs(centered @ v[:, keep]) ** 2, axis=0))))


def robertson_bound(a, b, rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Lower bound (1/2)|Tr[[A,B] rho]| appearing in the uncertainty relations."""
    return _robertson(_as_observable_matrix(a, tol), _as_observable_matrix(b, tol),
                      _as_state_matrix(rho, tol))


def _robertson(am: np.ndarray, bm: np.ndarray, rm: np.ndarray) -> float:
    """robertson_bound of validated matrices."""
    return 0.5 * abs(expectation(commutator(am, bm), rm))


def tensor(x, y) -> np.ndarray:
    """Kronecker product, system factor first.

    x may carry leading stack axes, which the result keeps. Computed by
    broadcasting, the same products as np.kron at a fraction of its call
    overhead.
    """
    xm, ym = _as_matrix(x), _as_matrix(y)
    (m, n), (p, q) = xm.shape[-2:], ym.shape
    return (xm[..., :, None, :, None] * ym[:, None, :]).reshape(xm.shape[:-2] + (m * p, n * q))


def partial_trace(z, dims, keep: str = "first") -> np.ndarray:
    """Partial trace of an operator on a bipartite space.

    Parameters
    ----------
    z : array_like, shape (..., d1*d2, d1*d2), one operator or a stack
    dims : (d1, d2) factor dimensions, system first
    keep : "first" traces out the second factor, "second" the first
    """
    d1, d2 = int(dims[0]), int(dims[1])
    zm = _as_matrix(z)
    if zm.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValidationError(f"operator shape {zm.shape} does not match dims {dims}")
    t = zm.reshape(zm.shape[:-2] + (d1, d2, d1, d2))
    if keep == "first":
        return np.einsum("...ijkj->...ik", t)
    if keep == "second":
        return np.einsum("...ijil->...jl", t)
    raise ValidationError(f"keep must be 'first' or 'second', got {keep!r}")
