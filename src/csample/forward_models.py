"""Observation operators H(x) with adjoint-of-Jacobian actions, plus image I/O.

The Gaussian blur is separable: it stores one n-by-n matrix per image axis,
built once from the kernel with the boundary rule folded in, and applies
H X = B_r X B_c^T. The adjoint is H^T V = B_r^T V B_c, exact by
construction, so the dot-test identity <H x, v> = <x, H^T v> holds to
round-off. Apply and adjoint cost O(rows * cols * (rows + cols)); the full
n_pixels-square Jacobian is materialized only on request, by
``materialize_jacobian``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImageIoError

KERNEL_SUM_TOLERANCE = 1e-12

BOUNDARY_RULES = ("reflect", "periodic")


class ForwardOperator:
    """Base class: a map from state space (in_dim) to observation space (out_dim)."""

    kind = "abstract"
    linear = False

    def __init__(self, in_dim, out_dim):
        if out_dim > in_dim:
            raise DimensionMismatch(
                f"observation dimension {out_dim} exceeds state dimension {in_dim}"
            )
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def apply(self, x):
        raise NotImplementedError

    def adjoint_jacobian_apply(self, x, v):
        """[dH(x)]^T v; for linear operators this is independent of x."""
        raise NotImplementedError

    def jacobian_apply(self, x, v):
        """dH(x) v; a linear operator applies itself, a nonlinear one overrides this."""
        return self.apply(v)

    def _check_state(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_dim,):
            raise DimensionMismatch(f"state must have shape ({self.in_dim},), got {x.shape}")
        return x

    def _check_obs(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.out_dim,):
            raise DimensionMismatch(
                f"observation vector must have shape ({self.out_dim},), got {v.shape}"
            )
        return v


class IdentityOperator(ForwardOperator):
    kind = "identity"
    linear = True

    def __init__(self, dim):
        super().__init__(dim, dim)

    def apply(self, x):
        return self._check_state(x).copy()

    def adjoint_jacobian_apply(self, x, v):
        return self._check_obs(v).copy()


class MatrixOperator(ForwardOperator):
    """Linear observation operator given by an explicit dense matrix."""

    kind = "linear-matrix"
    linear = True

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionMismatch("operator matrix must be two-dimensional")
        super().__init__(matrix.shape[1], matrix.shape[0])
        self.matrix = matrix

    def apply(self, x):
        return self.matrix @ self._check_state(x)

    def adjoint_jacobian_apply(self, x, v):
        return self.matrix.T @ self._check_obs(v)


def gaussian_kernel1d(width, sigma):
    """Normalized 1-D Gaussian kernel of odd width; entries sum to 1."""
    width = int(width)
    if width < 1 or width % 2 == 0:
        raise ValueError("kernel width must be a positive odd integer")
    if sigma <= 0.0:
        raise ValueError("kernel standard deviation must be positive")
    half = width // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    assert abs(kernel.sum() - 1.0) <= KERNEL_SUM_TOLERANCE
    return kernel


def _blur_matrix1d(n, kernel, boundary):
    """The n-by-n matrix of a 1-D correlation with its boundary rule folded in.

    Row i holds the kernel taps centred on pixel i. A tap that falls outside
    the grid is added onto the pixel the boundary rule maps it to: modulo n
    for ``periodic``; for ``reflect`` the half-sample-symmetric extension
    (... x1 x0 | x0 x1 ... xn-1 | xn-1 xn-2 ...), taken with period 2n so it
    stays exact when the kernel is wider than the grid.
    """
    width = kernel.size
    pos = np.arange(n)[:, None] + np.arange(width)[None, :] - width // 2
    if boundary == "periodic":
        pixel = np.mod(pos, n)
    else:
        p = np.mod(pos, 2 * n)
        pixel = np.where(p < n, p, 2 * n - 1 - p)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (np.repeat(np.arange(n), width), pixel.reshape(-1)), np.tile(kernel, n))
    return matrix


class GaussianBlurOperator(ForwardOperator):
    """Separable 2-D Gaussian convolution on a rows-by-cols pixel grid.

    States are row-major flattened images. The kernel sums to one, so a
    constant image maps to itself; under the periodic rule the mean
    intensity is preserved exactly.
    """

    kind = "gaussian-blur"
    linear = True

    def __init__(self, rows, cols, width=5, sigma=1.5, boundary="reflect"):
        if boundary not in BOUNDARY_RULES:
            raise ValueError(f"boundary must be one of {BOUNDARY_RULES}")
        n = int(rows) * int(cols)
        super().__init__(n, n)
        self.rows = int(rows)
        self.cols = int(cols)
        self.width = int(width)
        self.sigma = float(sigma)
        self.boundary = boundary
        self.kernel = gaussian_kernel1d(width, sigma)
        self.row_matrix = _blur_matrix1d(self.rows, self.kernel, boundary)
        self.col_matrix = _blur_matrix1d(self.cols, self.kernel, boundary)

    def apply(self, x):
        img = self._check_state(x).reshape(self.rows, self.cols)
        return (self.row_matrix @ img @ self.col_matrix.T).reshape(-1)

    def adjoint_jacobian_apply(self, x, v):
        img = self._check_obs(v).reshape(self.rows, self.cols)
        return (self.row_matrix.T @ img @ self.col_matrix).reshape(-1)


class SaturationWrapper(ForwardOperator):
    """Pointwise saturation s(z) = z / (1 + |z|) composed after an operator.

    Makes any wrapped operator genuinely nonlinear while keeping an exact
    chain-rule adjoint: s'(z) = 1 / (1 + |z|)^2.
    """

    linear = False

    def __init__(self, inner):
        super().__init__(inner.in_dim, inner.out_dim)
        self.inner = inner
        self.kind = f"saturated-{inner.kind}"

    def apply(self, x):
        z = self.inner.apply(x)
        return z / (1.0 + np.abs(z))

    def adjoint_jacobian_apply(self, x, v):
        z = self.inner.apply(x)
        scaled = self._check_obs(v) / (1.0 + np.abs(z)) ** 2
        return self.inner.adjoint_jacobian_apply(x, scaled)

    def jacobian_apply(self, x, v):
        z = self.inner.apply(x)
        return self.inner.jacobian_apply(x, v) / (1.0 + np.abs(z)) ** 2


def materialize_jacobian(op):
    """Dense matrix of a linear operator H, column j being H e_j;
    O(out_dim * in_dim) memory. A nonlinear operator raises ValueError."""
    if not op.linear:
        raise ValueError(f"operator {op.kind!r} is nonlinear")
    jac = np.empty((op.out_dim, op.in_dim))
    for j in range(op.in_dim):
        e = np.zeros(op.in_dim)
        e[j] = 1.0
        jac[:, j] = op.apply(e)
    return jac


def blur_jacobian_structure_check(op, tol=1e-12):
    """True when a single-row operator's Jacobian is Toeplitz-banded.

    Materializes the Jacobian from unit vectors, then asserts constant
    diagonals away from the boundary band and zero entries outside the
    kernel's half-width. Intended for 1-D restrictions (one image row).
    """
    if op.in_dim != op.out_dim:
        raise DimensionMismatch("structure check expects a square operator")
    if isinstance(op, GaussianBlurOperator):
        if op.rows != 1:
            raise ValueError("restrict the blur to a single image row first")
        half = op.width // 2
    else:
        half = 0  # no boundary band; require constant diagonals everywhere
    jac = materialize_jacobian(op)
    n = op.in_dim
    if isinstance(op, GaussianBlurOperator):
        for i in range(n):
            for j in range(n):
                if abs(i - j) > half and abs(jac[i, j]) > tol:
                    return False
    # Compare J[i, j] with J[i-1, j-1] only where both points sit outside
    # the boundary band.
    interior = range(half + 1, n - half)
    for i in interior:
        for j in interior:
            if abs(jac[i, j] - jac[i - 1, j - 1]) > tol:
                return False
    return True


@dataclass(frozen=True)
class ImageGrid:
    """Grayscale image: row-major intensities over a rows-by-cols grid."""

    rows: int
    cols: int
    intensities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.intensities, dtype=float).reshape(-1)
        if values.size != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} intensities, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("image intensities must be finite")
        object.__setattr__(self, "intensities", values)

    def mean_intensity(self):
        return float(np.mean(self.intensities))


def read_pgm(path):
    """Read a plain (P2) PGM file; intensities are scaled to [0, 1]."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ImageIoError(f"cannot read PGM file {path}: {exc}") from exc
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ImageIoError(f"{path}: expected plain PGM magic 'P2'")
    try:
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = np.array([int(t) for t in tokens[4:]], dtype=float)
    except (IndexError, ValueError) as exc:
        raise ImageIoError(f"{path}: malformed PGM header or payload") from exc
    if maxval <= 0:
        raise ImageIoError(f"{path}: maxval must be positive")
    if cols < 1 or rows < 1:
        raise ImageIoError(f"{path}: width and height must be at least 1, got {cols} x {rows}")
    if values.size != rows * cols:
        raise ImageIoError(f"{path}: expected {rows * cols} pixels, found {values.size}")
    if np.any(values < 0) or np.any(values > maxval):
        raise ImageIoError(f"{path}: pixel values outside [0, {maxval}]")
    return ImageGrid(rows, cols, values / maxval)


def write_pgm(grid, path, maxval=255):
    """Write a plain (P2) PGM; intensities are clamped to [0, 1] at save time."""
    from pathlib import Path

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    clamped = np.clip(grid.intensities, 0.0, 1.0)
    pixels = np.rint(clamped * maxval).astype(int).reshape(grid.rows, grid.cols)
    lines = ["P2", f"{grid.cols} {grid.rows}", f"{maxval}"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ImageIoError(f"cannot write PGM file {path}: {exc}") from exc
