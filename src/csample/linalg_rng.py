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

def _as_vector(x, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix."""

    __slots__ = ("order", "_sqrt_diag", "_lower", "_logdet")

    def __init__(self, order, sqrt_diag=None, lower=None):
        self.order = order
        self._sqrt_diag = sqrt_diag
        self._lower = lower
        if sqrt_diag is not None:
            self._logdet = 2.0 * float(np.sum(np.log(sqrt_diag)))
        else:
            self._logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))

    @property
    def diagonal_path(self):
        return self._sqrt_diag is not None

    def lower(self):
        """Dense L; materializes a diagonal factor (test/debug use)."""
        if self._lower is not None:
            return np.array(self._lower)
        return np.diag(self._sqrt_diag)

    def apply(self, z):
        """L @ z, the scaling step of multivariate-normal sampling."""
        z = _as_vector(z)
        if z.size != self.order:
            raise DimensionMismatch(f"expected length {self.order}, got {z.size}")
        if self.diagonal_path:
            return self._sqrt_diag * z
        return self._lower @ z

    def solve_lower(self, b):
        """L^{-1} b; b may be a vector or a stack of columns."""
        if self.diagonal_path:
            d = self._sqrt_diag if b.ndim == 1 else self._sqrt_diag[:, None]
            return b / d
        return solve_triangular(self._lower, b, lower=True)

    def solve(self, b):
        """A^{-1} b via two triangular solves."""
        if self.diagonal_path:
            d = self._sqrt_diag if b.ndim == 1 else self._sqrt_diag[:, None]
            return b / (d * d)
        y = solve_triangular(self._lower, b, lower=True)
        return solve_triangular(self._lower, y, lower=True, trans="T")

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
    diagonal; others store the dense matrix. The Cholesky factor is computed
    lazily and cached, so repeated solves and samples reuse one
    factorization.
    """

    __slots__ = ("order", "_diag", "_dense", "_factor")

    def __init__(self, order, diag=None, dense=None):
        self.order = int(order)
        self._diag = diag
        self._dense = dense
        self._factor = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_diagonal(cls, diag):
        d = _as_vector(diag, "diagonal")
        return cls(d.size, diag=d.copy())

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        scale = max(np.max(np.abs(a)), 1.0)
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        if a.shape[0] == 1:
            # Order-1 matrices are stored diagonally: same algebra, O(1) ops.
            return cls(1, diag=np.diag(a).copy())
        sym = 0.5 * (a + a.T)
        return cls(a.shape[0], dense=sym)

    @classmethod
    def identity(cls, order):
        return cls.from_diagonal(np.ones(order))

    @classmethod
    def spherical(cls, order, variance):
        return cls.from_diagonal(np.full(order, float(variance)))

    # -- accessors ----------------------------------------------------

    @property
    def is_diagonal(self):
        return self._diag is not None

    def diagonal(self):
        if self.is_diagonal:
            return np.array(self._diag)
        return np.diag(self._dense).copy()

    def dense(self):
        """Materialize the full matrix (test/debug use; O(order^2))."""
        if self.is_diagonal:
            return np.diag(self._diag)
        return np.array(self._dense)

    def scaled(self, c):
        """A new SpdMatrix equal to c * A (c > 0)."""
        c = float(c)
        if c <= 0.0:
            raise ValueError("scale factor must be positive")
        if self.is_diagonal:
            return SpdMatrix(self.order, diag=c * self._diag)
        return SpdMatrix(self.order, dense=c * self._dense)

    # -- numerics -----------------------------------------------------

    def chol(self):
        """Cached Cholesky factor; raises NotPositiveDefinite on failure."""
        if self._factor is None:
            self._factor = cholesky(self)
        return self._factor

    def logdet(self):
        return self.chol().logdet()

    def matvec(self, v):
        v = _as_vector(v)
        if v.size != self.order:
            raise DimensionMismatch(f"expected length {self.order}, got {v.size}")
        if self.is_diagonal:
            return self._diag * v
        return self._dense @ v

    def solve(self, v):
        v = _as_vector(v)
        if v.size != self.order:
            raise DimensionMismatch(f"expected length {self.order}, got {v.size}")
        return self.chol().solve(v)

    def quad(self, v):
        """v.T A v."""
        v = _as_vector(v)
        if v.size != self.order:
            raise DimensionMismatch(f"expected length {self.order}, got {v.size}")
        if self.is_diagonal:
            return float(np.sum(self._diag * v * v))
        return float(v @ (self._dense @ v))

    def maha_sq(self, v):
        """v.T A^{-1} v."""
        v = _as_vector(v)
        if v.size != self.order:
            raise DimensionMismatch(f"expected length {self.order}, got {v.size}")
        return float(self.chol().maha_sq(v))


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
    if a.is_diagonal:
        d = a._diag
        floor = RELATIVE_PIVOT_FLOOR * max(float(np.max(d)), 0.0)
        bad = np.nonzero(d <= floor)[0]
        if bad.size:
            raise NotPositiveDefinite(bad[0])
        return CholeskyFactor(a.order, sqrt_diag=np.sqrt(d))
    dense = a._dense
    lower, info = dpotrf(dense, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    pivots = np.diag(lower) ** 2
    floor = RELATIVE_PIVOT_FLOOR * float(np.max(np.diag(dense)))
    bad = np.nonzero(pivots <= floor)[0]
    if bad.size:
        raise NotPositiveDefinite(bad[0])
    return CholeskyFactor(a.order, lower=lower)


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
