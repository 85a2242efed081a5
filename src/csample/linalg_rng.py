"""Dense SPD linear algebra and reproducible per-chain random streams.

SPD matrices built from a diagonal store only that diagonal, and every
operation on them is O(order), with no call into LAPACK or the triangular
solver; dense matrices are Cholesky-backed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import DimensionMismatch, NotPositiveDefinite

# A Cholesky pivot at or below this fraction of the largest diagonal entry is
# treated as a positive-definiteness failure. EM covariance floors are chosen
# well above it, so a trip here means something upstream needs repair.
RELATIVE_PIVOT_FLOOR = 1e-13

def _as_vector(x, name="vector", order=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if order is not None and v.size != order:
        raise DimensionMismatch(f"expected length {order}, got {v.size}")
    return v


class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix.

    ``lower`` is L itself, or the vector of its diagonal when L is diagonal.
    """

    __slots__ = ("order", "_lower", "_logdet")

    def __init__(self, lower):
        self.order = lower.shape[0]
        self._lower = lower
        pivots = lower if lower.ndim == 1 else np.diag(lower)
        self._logdet = 2.0 * float(np.sum(np.log(pivots)))

    @property
    def diagonal_path(self):
        return self._lower.ndim == 1

    def lower(self):
        """Dense L; materializes a diagonal factor (test/debug use)."""
        return np.diag(self._lower) if self.diagonal_path else np.array(self._lower)

    def apply(self, z):
        """L @ z, the scaling step of multivariate-normal sampling."""
        z = _as_vector(z, order=self.order)
        return self._lower * z if self.diagonal_path else self._lower @ z

    def solve_lower(self, b):
        """L^{-1} b; b may be a vector or a stack of columns."""
        if self.diagonal_path:
            return b / (self._lower if b.ndim == 1 else self._lower[:, None])
        return solve_triangular(self._lower, b, lower=True)

    def solve(self, b):
        """A^{-1} b via two triangular solves."""
        if self.diagonal_path:
            d = self._lower if b.ndim == 1 else self._lower[:, None]
            return b / (d * d)
        return solve_triangular(self._lower, self.solve_lower(b), lower=True, trans="T")

    def maha_sq(self, v):
        """v.T A^{-1} v, computed through the factor."""
        w = self.solve_lower(v)
        return float(w @ w) if w.ndim == 1 else np.einsum("i...,i...->...", w, w)

    def logdet(self):
        """log det of the factored matrix A."""
        return self._logdet


class SpdMatrix:
    """Symmetric positive definite matrix.

    Matrices built from a diagonal (and order-1 matrices) store only the
    diagonal, a vector; others store the dense matrix. The Cholesky factor is
    computed lazily and cached, so repeated solves and samples reuse one
    factorization.
    """

    __slots__ = ("order", "_array", "_factor")

    def __init__(self, array):
        self.order = array.shape[0]
        self._array = array
        self._factor = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_diagonal(cls, diag):
        d = _as_vector(diag, "diagonal")
        return cls(d.copy())

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        sym = symmetrized(a)
        if a.shape[0] == 1:
            # Order-1 matrices are stored diagonally: same algebra, O(1) ops.
            return cls(np.diag(a).copy())
        return cls(sym)

    @classmethod
    def identity(cls, order):
        return cls.from_diagonal(np.ones(order))

    @classmethod
    def spherical(cls, order, variance):
        return cls.from_diagonal(np.full(order, float(variance)))

    # -- accessors ----------------------------------------------------

    @property
    def is_diagonal(self):
        return self._array.ndim == 1

    def diagonal(self):
        return np.array(self._array) if self.is_diagonal else np.diag(self._array).copy()

    def dense(self):
        """Materialize the full matrix (test/debug use; O(order^2))."""
        return np.diag(self._array) if self.is_diagonal else np.array(self._array)

    def scaled(self, c):
        """A new SpdMatrix equal to c * A (c > 0)."""
        c = float(c)
        if c <= 0.0:
            raise ValueError("scale factor must be positive")
        return SpdMatrix(c * self._array)

    # -- numerics -----------------------------------------------------

    def chol(self):
        """Cached Cholesky factor; raises NotPositiveDefinite on failure."""
        if self._factor is None:
            self._factor = cholesky(self)
        return self._factor

    def logdet(self):
        return self.chol().logdet()

    def matvec(self, v):
        v = _as_vector(v, order=self.order)
        return self._array * v if self.is_diagonal else self._array @ v

    def solve(self, v):
        return self.chol().solve(_as_vector(v, order=self.order))

    def quad(self, v):
        """v.T A v."""
        v = _as_vector(v, order=self.order)
        if self.is_diagonal:
            return float(np.sum(self._array * v * v))
        return float(v @ (self._array @ v))

    def maha_sq(self, v):
        """v.T A^{-1} v."""
        return float(self.chol().maha_sq(_as_vector(v, order=self.order)))


def symmetrized(a):
    """0.5 (A + A^T) of a matrix or of each matrix of a stack; a matrix
    farther than 1e-12 (relative) from symmetric raises ValueError."""
    flipped = a.swapaxes(-1, -2)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(a - flipped), axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + flipped)


def cholesky(a):
    """Lower Cholesky factor of an SpdMatrix.

    Diagonal matrices factor in O(order) elementwise square roots. A pivot
    at or below RELATIVE_PIVOT_FLOOR times the largest diagonal entry raises
    NotPositiveDefinite carrying the pivot index.
    """
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix.from_dense(np.asarray(a, dtype=float))
    if a.order < 1:
        raise DimensionMismatch("matrix order must be at least 1")
    return CholeskyFactor(cholesky_stack(a._array[None])[0])


def cholesky_stack(stack):
    """Lower Cholesky factors of a stack of SPD matrices.

    A (k, d) stack holds k diagonal matrices, one per row, and factors to
    their elementwise square roots. A (k, d, d) stack is factored matrix by
    matrix with LAPACK's dpotrf. A pivot at or below RELATIVE_PIVOT_FLOOR
    times the largest diagonal entry of its matrix raises
    NotPositiveDefinite carrying the pivot index.
    """
    if stack.ndim == 2:
        _check_pivots(stack, np.maximum(stack.max(axis=1), 0.0))
        return np.sqrt(stack)
    # Each factor in Fortran order, as dpotrf returns it and trtrs takes it.
    lower = np.empty(stack.shape).swapaxes(1, 2)
    for k, a in enumerate(stack):
        lower[k], info = dpotrf(a, lower=1, clean=1)
        if info > 0:
            i = info - 1
            raise NotPositiveDefinite(i, f"matrix {k} is not positive definite (pivot {i})")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
    pivots = np.diagonal(lower, axis1=1, axis2=2) ** 2
    _check_pivots(pivots, np.diagonal(stack, axis1=1, axis2=2).max(axis=1))
    return lower


def _check_pivots(pivots, largest):
    """Raise NotPositiveDefinite at the first pivot of a (k, d) stack that is
    at or below RELATIVE_PIVOT_FLOOR times its matrix's largest diagonal."""
    bad = np.argwhere(pivots <= RELATIVE_PIVOT_FLOOR * largest[:, None])
    if bad.size:
        k, i = bad[0]
        raise NotPositiveDefinite(i, f"matrix {k} is not positive definite (pivot {i})")


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    The generated sequence is a pure function of the key pair: replaying a
    stream reproduces it bit for bit, and streams with distinct keys are
    statistically independent. Chain workers each own exactly one stream, so
    adding or removing workers never perturbs any other chain's draws.
    Normal variates come from the generator's ziggurat sampler.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        entropy = self.seed & 0xFFFFFFFFFFFFFFFF
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def fresh(self):
        """A new stream at the start of this stream's sequence."""
        return RngStream(self.seed, self.stream_id)

    def standard_normal(self, n):
        if n < 1:
            raise ValueError("n must be at least 1")
        return self._gen.standard_normal(int(n))

    def uniform(self, n=None):
        if n is None:
            return float(self._gen.random())
        return self._gen.random(int(n))


def sample_mvn(rng, mean, cov):
    """One draw from N(mean, cov) as mean + L z with L the Cholesky factor.

    Diagonal covariances cost O(n) end to end; dense covariances cost O(n^2)
    per draw after the one cached factorization.
    """
    mean = _as_vector(mean, "mean")
    if mean.size != cov.order:
        raise DimensionMismatch(f"mean length {mean.size} != covariance order {cov.order}")
    z = rng.standard_normal(mean.size)
    return mean + cov.chol().apply(z)
