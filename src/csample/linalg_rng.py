"""SPD linear algebra and reproducible per-chain random streams.

``SpdMatrix`` is the one SPD type: it factors itself when built, so a
matrix that is not SPD raises there, and it solves, whitens, samples and
takes log determinants through that factor. ``cholesky_stack`` factors a
stack of matrices by one ``np.linalg.cholesky`` call (the mixture's
covariances) and is also what factors a single ``SpdMatrix``;
``inverse_transposes`` inverts a stack of those factors by one
``np.linalg.inv`` call. Matrices built from a diagonal store only that
diagonal, and every operation on them is O(order), with no call into
LAPACK.
"""

from __future__ import annotations

import copy

import numpy as np
# Every run seeds an RngStream; numpy loads its random module lazily, and
# loaded here it counts in the import, not in the run.
import numpy.random  # noqa: F401

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
    factor L (A = L L^T) is computed when the matrix is built, so an order-0
    array raises DimensionMismatch there, and a pivot at or below
    RELATIVE_PIVOT_FLOOR times the largest diagonal entry raises
    NotPositiveDefinite carrying the pivot index. L is stored as
    ``cholesky_stack`` returns it: the vector of square roots of a diagonal
    matrix, else a matrix. Beside it a diagonal matrix stores the squares of
    those roots, as computed, for its solves (they need not equal the stored
    diagonal bit for bit), and a dense matrix stores L^{-T}, so a solve is
    two matrix-vector products and ``maha_sq`` one. ``solve``, ``maha_sq``
    and ``factor_apply`` sit on the samplers' per-step path and take a float
    vector of length ``order`` unchecked.
    """

    __slots__ = ("order", "_array", "_lower", "_solver")

    def __init__(self, array):
        self.order = array.shape[0]
        if self.order < 1:
            raise DimensionMismatch("matrix order must be at least 1")
        factors = cholesky_stack(array[None])
        self._array = array
        self._lower = factors[0]
        self._solver = (self._lower * self._lower if array.ndim == 1
                        else inverse_transposes(factors)[0])

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

    def logdet(self):
        pivots = self._lower if self.is_diagonal else np.diag(self._lower)
        return 2.0 * float(np.sum(np.log(pivots)))

    def matvec(self, v):
        v = _as_vector(v, order=self.order)
        return self._array * v if self.is_diagonal else self._array @ v

    def solve(self, v):
        """A^{-1} v as L^{-T} (L^{-1} v), by the stored inverse factor."""
        if self.is_diagonal:
            return v / self._solver
        return self._solver @ (v @ self._solver)

    def maha_sq(self, v):
        """v.T A^{-1} v, as |L^{-1} v|^2."""
        w = v / self._lower if self.is_diagonal else v @ self._solver
        return float(w.dot(w))

    def factor_apply(self, z):
        """L @ z, the scaling step of multivariate-normal sampling."""
        return self._lower * z if self.is_diagonal else self._lower @ z


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
    their elementwise square roots. A (k, d, d) stack is factored by one
    ``np.linalg.cholesky`` call, each factor in C order. A pivot that is not
    finite, or is at or below RELATIVE_PIVOT_FLOOR times the largest finite
    diagonal entry of its matrix, raises NotPositiveDefinite naming the
    matrix and carrying the pivot index; a non-finite entry raises at the
    first pivot it reaches.
    """
    if stack.ndim == 2:
        _check_pivots(stack, stack)
        return np.sqrt(stack)
    try:
        lower = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        # The stacked call names no matrix and no pivot; find both.
        k, i = _first_failure(stack)
        raise NotPositiveDefinite(i, f"matrix {k} is not positive definite (pivot {i})") from None
    pivots = np.diagonal(lower, axis1=1, axis2=2) ** 2
    _check_pivots(pivots, np.diagonal(stack, axis1=1, axis2=2))
    return lower


def _first_failure(stack):
    """(k, i): the first matrix of a stack that ``np.linalg.cholesky``
    rejects, and the pivot i that LAPACK stops at, found by bisection as the
    order of the matrix's smallest rejected leading block less one. For the
    failure path only."""
    k = next(k for k, a in enumerate(stack) if not _factorable(a))
    passes, fails = 0, stack.shape[1]  # leading-block orders known to pass, to fail
    while fails - passes > 1:
        mid = (passes + fails) // 2
        if _factorable(stack[k, :mid, :mid]):
            passes = mid
        else:
            fails = mid
    return k, fails - 1


def _factorable(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_pivots(pivots, diagonals):
    """Raise NotPositiveDefinite at the first pivot of a (k, d) stack that is
    not finite or is at or below RELATIVE_PIVOT_FLOOR times the largest
    finite entry of its matrix's diagonal, the matching row of ``diagonals``."""
    if (pivots > RELATIVE_PIVOT_FLOOR * diagonals.max(axis=1, initial=0.0)[:, None]).all():
        return
    # NaN passes no comparison, but an infinite diagonal entry would fail
    # every pivot of its matrix: name the first pivot against finite entries.
    largest = diagonals.max(axis=1, initial=0.0, where=np.isfinite(diagonals))
    threshold = RELATIVE_PIVOT_FLOOR * largest
    bad = ~(np.isfinite(pivots) & (pivots > threshold[:, None]))
    k, i = np.argwhere(bad)[0]
    raise NotPositiveDefinite(i, f"matrix {k} is not positive definite (pivot {i})")


def inverse_transposes(factors):
    """L_k^{-T} of each lower Cholesky factor L_k of a (k, d, d) stack, each
    in C order, by one ``np.linalg.inv`` call on the upper factors L_k^T:
    their LU factorization needs no row exchange, so each inverse is the
    plain triangular one."""
    return np.linalg.inv(factors.swapaxes(1, 2))


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
    per draw, by the factor stored when the matrix was built.
    """
    mean = _as_vector(mean, "mean")
    if mean.size != cov.order:
        raise DimensionMismatch(f"mean length {mean.size} != covariance order {cov.order}")
    z = rng.standard_normal(mean.size)
    return mean + cov.factor_apply(z)
