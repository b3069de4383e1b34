"""Finite-dimensional operator algebra for measurement statistics.

States are density operators, observables are Hermitian matrices, and
outcome statistics come from spectral measures via the Born rule.
Composite spaces are ordered system-first: an operator X on the system
and Y on the probe combine as kron(X, Y).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ValidationError(ValueError):
    """An operator, state, or parameter violates a structural invariant."""


class SchemaError(ValidationError):
    """An input does not match the documented schema."""


def _number(value, what: str, integer: bool = False):
    """The one way a scalar argument enters: a finite real number (numpy
    scalars too) as a float, or as an int when integer is set.

    Strings, bools, NaN, infinities, integers beyond the float range and,
    when integer is set, fractional values raise SchemaError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    if not integer:
        return x
    if not x.is_integer():
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _numbers(values, what: str, length: int = None, integer: bool = False) -> list:
    """A list of _number values from a list, tuple or array, of length when set."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(values, (list, tuple)) or (length is not None and len(values) != length):
        raise SchemaError(f"{what} must be a list of " + (f"{length} " if length else "") + "numbers")
    return [_number(x, what, integer) for x in values]


def _choice(value, options: tuple, what: str) -> str:
    """The one way an option argument enters: value, a string among options."""
    if not isinstance(value, str) or value not in options:
        raise SchemaError(f"{what} must be one of {options}, got {value!r}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the library.

    eq_tol bounds every equality check, through _slack alone: it is the
    relative slack of a quantity with the units of an observable and the
    absolute one of a dimensionless quantity, never below the rounding level
    of the sums behind it. psd_tol (<= 0) floors the eigenvalues of nominally positive matrices.
    """

    eq_tol: float = 1e-9
    psd_tol: float = -1e-10

    def __post_init__(self):
        for name in ("eq_tol", "psd_tol"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not self.eq_tol > 0:
            raise ValidationError("eq_tol must be positive and finite")
        if not self.psd_tol <= 0:
            raise ValidationError("psd_tol must be finite and <= 0")


@dataclass(frozen=True)
class PhysicalConstants:
    """Runtime physical constants. hbar defaults to 1."""

    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hbar", _number(self.hbar, "hbar"))
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive and finite")


DEFAULT_TOL = Tolerances()
DEFAULT_CONSTANTS = PhysicalConstants()
_EPS = float(np.finfo(float).eps)


def _as_array(x, ndim: int, real: bool = False, dim: int = None) -> np.ndarray:
    """The one way a raw array enters: a finite, nonempty copy of x with ndim
    axes (None: two or more), a complex copy of int, float or complex
    entries, or with real a float copy of int or float entries only (a bool
    or string entry raises in either, a bool among numbers in a list or
    tuple too, though numpy promotes it). With two or more axes the last two
    are square; the last has length dim when dim is given. An array that owns its
    memory, is already read-only (the library's marker for an immutable array)
    and has the target dtype is checked the same way and kept, not copied."""
    try:
        arr = np.asarray(x)
        bools = isinstance(x, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
            map(type, np.asarray(x, dtype=object).flat))
    except (TypeError, ValueError):
        raise ValidationError(f"cannot read a {type(x).__name__} as a numeric array: "
                              "ragged nesting or a non-numeric entry") from None
    if bools or arr.dtype.kind not in ("iuf" if real else "iufc"):
        raise ValidationError(f"need {'real ' if real else ''}numbers, "
                              f"got {'bool' if bools else arr.dtype} entries")
    square = arr.ndim < 2 or arr.shape[-1] == arr.shape[-2]
    if not (arr.ndim >= 2 if ndim is None else arr.ndim == ndim) or not arr.size or not square:
        kind = {1: "vector", 2: "square matrix"}.get(ndim, "square matrix stack")
        raise ValidationError(f"need a nonempty {kind}, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValidationError(f"dimension mismatch: {arr.shape} on dimension {dim}")
    if not np.isfinite(arr).all():
        raise ValidationError("entries must be finite")
    dtype = float if real else complex
    kept = arr.flags.owndata and not arr.flags.writeable and arr.dtype == dtype
    return arr if kept else arr.astype(dtype)


def as_operator(matrix) -> np.ndarray:
    """A matrix as a finite, nonempty square complex read-only array (_as_array):
    a copy, or the matrix itself when _as_array keeps it."""
    arr = _as_array(matrix, 2)
    arr.setflags(write=False)
    return arr


def _as_operators(ops, dim: int = None) -> np.ndarray:
    """A family of operators as one (r, d, d) _as_array, d = dim if given; an
    empty list, tuple or stack comes back as (0, dim, dim), (0, 0, 0) without dim."""
    if isinstance(ops, (list, tuple)) and not ops \
            or isinstance(ops, np.ndarray) and ops.shape[:1] == (0,):
        return np.zeros((0, dim or 0, dim or 0), dtype=complex)
    return _as_array(ops, 3, dim=dim)


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator of a stack."""
    return op.conj().swapaxes(-1, -2)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def hermitian_part(op: np.ndarray) -> np.ndarray:
    """(X + X+)/2 of an operator, or of each operator of a stack."""
    return 0.5 * (op + dagger(op))


def _adjoint_gap(op: np.ndarray) -> tuple:
    """(max|X - X+|, X+): the one Hermiticity deviation, with the adjoint for (X + X+)/2."""
    adj = dagger(op)
    return float(np.abs(op - adj).max()), adj


def operator_distance(x, y) -> float:
    """Max-abs entrywise distance of two same-shape arrays, the operator equality norm."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.abs(x - y).max())


def _slack(tol: Tolerances, scale: float = 1.0, terms: int = 1) -> float:
    """The one rule by which a quantity counts as zero: eq_tol times its scale
    (1 if dimensionless), eq_tol counting as at least 16 * terms machine eps,
    the rounding level of a sum of that many terms."""
    return max(tol.eq_tol, 16 * terms * _EPS) * scale


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
    Construction fails unless the input's deviation from Hermiticity, in
    max-abs norm, is within the slack of max|X_ij|, at any scale of X.
    """

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOL):
        op = as_operator(matrix)
        gap, adj = _adjoint_gap(op)
        if not gap <= _slack(tol, float(np.abs(op).max())):
            raise ValidationError("observable must be Hermitian within eq_tol")
        sym = 0.5 * (op + adj)
        sym.setflags(write=False)
        self._init_fields(matrix=sym, dim=sym.shape[0])

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"HermitianObservable(dim={self.dim})"


class DensityOperator(_Immutable):
    """A quantum state: Hermitian, unit trace, eigenvalues >= psd_tol. Immutable; the
    matrix and its support = (w, v), the eigh pairs with w above dim * machine eps
    (the rounding level of a unit-trace matrix), are read-only."""

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOL):
        op = as_operator(matrix)
        slack = _slack(tol, terms=op.shape[0])
        gap, adj = _adjoint_gap(op)
        if gap > slack:
            raise ValidationError("density operator must be Hermitian within eq_tol")
        if abs((trace := op.trace()).real - 1.0) > slack or abs(trace.imag) > slack:
            raise ValidationError(f"density operator must have unit trace, got {trace}")
        sym = 0.5 * (op + adj)
        w, v = np.linalg.eigh(sym)
        if w[0] < tol.psd_tol:
            raise ValidationError(f"density operator has negative eigenvalue {w[0]}")
        keep = w > len(w) * _EPS
        w, v = w[keep], v[:, keep]
        for arr in (sym, w, v):
            arr.setflags(write=False)
        self._init_fields(matrix=sym, dim=sym.shape[0], support=(w, v))

    @classmethod
    def pure(cls, vector, tol: Tolerances = DEFAULT_TOL) -> "DensityOperator":
        """Rank-one state |v><v| from a (not necessarily normalized) vector."""
        v = _as_array(vector, 1)
        peak = float(np.abs(v).max())
        if not peak:
            raise ValidationError("cannot normalize a zero vector")
        # an exact power-of-two scale to max|v| ~ 1: the norm cannot overflow or underflow
        v = np.ldexp(v.view(float), -np.frexp(peak)[1]).view(complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), tol=tol)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def _validated(x, kind, tol: Tolerances, dim: int = None):
    """The one way an observable or state argument x enters: as kind(x, tol) unless
    it is a kind already, "dimension mismatch" if dim is given and differs."""
    x = x if isinstance(x, kind) else kind(x, tol)
    if dim is not None and x.dim != dim:
        raise ValidationError(f"dimension mismatch: {x.matrix.shape} on dimension {dim}")
    return x


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with blocks[i], the read-only
    orthonormal (n, r_i) eigenvector columns of each, and their orthogonal
    spectral projectors P_i = blocks[i] blocks[i]+, stacked in one read-only
    (k, n, n) array made on first use.

    sum(projectors) = identity and sum(a_i * P_i) reconstructs the operator.
    """

    eigenvalues: np.ndarray
    blocks: tuple

    def __post_init__(self):
        for arr in (self.eigenvalues, *self.blocks):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.blocks[0])

    @cached_property
    def projectors(self) -> np.ndarray:
        padded = np.zeros((len(self.blocks), self.dim, max(b.shape[1] for b in self.blocks)),
                          dtype=complex)
        for p, b in zip(padded, self.blocks):
            p[:, :b.shape[1]] = b
        projectors = hermitian_part(padded @ dagger(padded))
        projectors.setflags(write=False)
        return projectors


def _cluster_labels(values, tol: Tolerances) -> np.ndarray:
    """Cluster index of each value, in input order, clusters numbered in
    ascending value order: the one rule by which two values match.

    In sorted order, a new cluster starts wherever the gap to the previous
    value exceeds the slack of the largest |value|, so a chain of values
    each within that slack of the next is one cluster however far it spans.
    """
    v = np.asarray(values, dtype=float)
    order = v.argsort(kind="stable")
    s = v[order]
    labels = np.zeros(len(v), dtype=int)
    labels[order[1:]] = (s[1:] - s[:-1] > _slack(tol, max(abs(s[0]), abs(s[-1])))).cumsum()
    return labels


def spectral_decompose(a, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalue clustering.

    Eigenvalues closer than eq_tol times the spectral radius
    (consecutively, after sorting) are merged into a single spectral value
    whose projector spans the combined eigenspace and whose value is the
    weighted mean of the cluster. Raises unless the decomposition
    reconstructs the operator within d slacks of d terms: d - 1 chained
    cluster gaps and the rounding of eigh.
    """
    mat = _validated(a, HermitianObservable, tol).matrix
    w, v = np.linalg.eigh(mat)
    labels = _cluster_labels(w, tol)
    counts = np.bincount(labels)
    starts = counts.cumsum() - counts
    dec = SpectralDecomposition(np.bincount(labels, weights=w) / counts,
                                tuple([v[:, i:i + c] for i, c in zip(starts.tolist(), counts.tolist())]))
    rebuilt = (v * dec.eigenvalues[labels]) @ dagger(v)  # sum a_i P_i, without the projectors
    if operator_distance(rebuilt, mat) > len(w) * _slack(tol, float(np.abs(w).max()), len(w)):
        raise ValidationError("spectral reconstruction failed")
    return dec


def expectation(x, rho) -> complex:
    """Tr[X rho]. Complex in general; real within eq_tol for Hermitian X."""
    xm = _as_array(x, 2)
    return complex(np.trace(xm @ _as_array(rho, 2, dim=len(xm))))


def std_dev(a, rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Standard deviation sqrt(Tr[(A - <A>)^2 rho]) of an observable in a state.

    The centered moment is summed over the support of the state, sum_j w_j
    |(A - <A>) phi_j|^2, which leaves out the weights at the rounding level
    of a unit-trace matrix. Taken entrywise, as <A^2> - <A>^2 or
    Tr[(A - <A>)^2 rho], it keeps that rounding and returns about
    sqrt(machine eps) times the operator scale on an eigenstate.
    """
    am = _validated(a, HermitianObservable, tol).matrix
    return _spectral_std_dev(am, _validated(rho, DensityOperator, tol, len(am)))


def _spectral_std_dev(am: np.ndarray, rho: DensityOperator) -> float:
    """std_dev of a validated matrix in a state, from the support of rho."""
    w, v = rho.support
    dev = am.copy()
    dev[np.diag_indices(len(am))] -= (am @ rho.matrix).trace().real
    return float(np.sqrt((w * (np.abs(dev @ v) ** 2).sum(axis=0)).sum()))


def robertson_bound(a, b, rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Lower bound (1/2)|Tr[[A,B] rho]| appearing in the uncertainty relations."""
    am = _validated(a, HermitianObservable, tol).matrix
    return _robertson(am, _validated(b, HermitianObservable, tol, len(am)).matrix,
                      _validated(rho, DensityOperator, tol, len(am)).matrix)


def _robertson(am: np.ndarray, bm: np.ndarray, rm: np.ndarray) -> float:
    """robertson_bound of validated matrices."""
    return 0.5 * abs(complex((commutator(am, bm) @ rm).trace()))


def tensor(x, y) -> np.ndarray:
    """Kronecker product, system factor first.

    x may carry leading stack axes, which the result keeps. Computed by
    broadcasting, the same products as np.kron at a fraction of its call
    overhead.
    """
    xm, ym = _as_array(x, None), _as_array(y, 2)
    (m, n), (p, q) = xm.shape[-2:], ym.shape
    return (xm[..., :, None, :, None] * ym[:, None, :]).reshape(xm.shape[:-2] + (m * p, n * q))


def partial_trace(z, dims) -> np.ndarray:
    """Partial trace over the second factor of an operator on a bipartite space.

    Parameters
    ----------
    z : array_like, shape (..., d1*d2, d1*d2), one operator or a stack
    dims : (d1, d2) factor dimensions, positive integers, system first
    """
    d1, d2 = _numbers(dims, "dims", 2, integer=True)
    if min(d1, d2) < 1:
        raise ValidationError(f"dims must be two positive integers, got {dims}")
    zm = _as_array(z, None, dim=d1 * d2)
    return np.einsum("...ijkj->...ik", zm.reshape(zm.shape[:-2] + (d1, d2, d1, d2)))
