"""SPD linear algebra and reproducible per-chain random streams.

``SpdMatrix`` is the one SPD type: it caches its own lower Cholesky factor
and solves, whitens, samples and takes log determinants through it.
``cholesky_stack`` factors a stack of matrices at once (the mixture's
covariances) and is also what factors a single ``SpdMatrix``. Matrices
built from a diagonal store only that diagonal, and every operation on
them is O(order), with no call into LAPACK or the triangular solver.
"""

from __future__ import annotations

import copy

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


class SpdMatrix:
    """Symmetric positive definite matrix.

    Matrices built from a diagonal (and order-1 matrices) store only the
    diagonal, a vector; others store the dense matrix. The lower Cholesky
    factor L (A = L L^T) is computed on first use and cached, so repeated
    solves and samples reuse one factorization. It is stored as
    ``cholesky_stack`` returns it: the vector of square roots of a diagonal
    matrix, else a Fortran-ordered matrix. ``solve``, ``maha_sq`` and
    ``factor_apply`` sit on the samplers' per-step path and take a float
    vector of length ``order`` unchecked.
    """

    __slots__ = ("order", "_array", "_lower")

    def __init__(self, array):
        self.order = array.shape[0]
        self._array = array
        self._lower = None

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

    def _factor(self):
        """The cached lower Cholesky factor. A pivot at or below
        RELATIVE_PIVOT_FLOOR times the largest diagonal entry raises
        NotPositiveDefinite carrying the pivot index."""
        if self._lower is None:
            if self.order < 1:
                raise DimensionMismatch("matrix order must be at least 1")
            self._lower = cholesky_stack(self._array[None])[0]
        return self._lower

    def logdet(self):
        lower = self._factor()
        pivots = lower if lower.ndim == 1 else np.diag(lower)
        return 2.0 * float(np.sum(np.log(pivots)))

    def matvec(self, v):
        v = _as_vector(v, order=self.order)
        return self._array * v if self.is_diagonal else self._array @ v

    def solve(self, v):
        """A^{-1} v via two triangular solves."""
        lower = self._factor()
        if lower.ndim == 1:
            return v / (lower * lower)
        w = solve_triangular(lower, v, lower=True)
        return solve_triangular(lower, w, lower=True, trans="T")

    def maha_sq(self, v):
        """v.T A^{-1} v, as |L^{-1} v|^2."""
        lower = self._factor()
        w = v / lower if lower.ndim == 1 else solve_triangular(lower, v, lower=True)
        return float(w @ w)

    def factor_apply(self, z):
        """L @ z, the scaling step of multivariate-normal sampling."""
        lower = self._factor()
        return lower * z if lower.ndim == 1 else lower @ z


def symmetrized(a):
    """0.5 (A + A^T) of a matrix or of each matrix of a stack; a matrix
    farther than 1e-12 (relative) from symmetric raises ValueError."""
    flipped = a.swapaxes(-1, -2)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(a - flipped), axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + flipped)


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
    ``child(*indices)`` derives a stream keyed by (seed, stream_id,
    *indices), which no draw from its parent affects. Normal variates come
    from the generator's ziggurat sampler.
    """

    __slots__ = ("seed", "stream_id", "_key", "_gen")

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        self._start((self.stream_id,))

    def _start(self, key):
        self._key = key
        entropy = self.seed & 0xFFFFFFFFFFFFFFFF
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def key(self):
        """The spawn key: (stream_id, *indices of each ``child`` call)."""
        return self._key

    def child(self, *indices):
        """The fresh stream keyed by this stream's key extended by
        ``indices``; it is the same however far this stream has drawn."""
        key = self._key + tuple(int(i) for i in indices)
        if min(key) < 0:
            raise ValueError("child indices must be non-negative")
        child = copy.copy(self)  # a subclass's own slots come along
        child._start(key)
        return child

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
    return mean + cov.factor_apply(z)
