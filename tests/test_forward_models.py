import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csample.errors import DimensionMismatch, ImageIoError
from csample.forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    ImageGrid,
    MatrixOperator,
    SaturationWrapper,
    blur_jacobian_structure_check,
    gaussian_kernel1d,
    materialize_jacobian,
    read_pgm,
    write_pgm,
)


def _pad_index_map(n, half, boundary):
    # Single mirror: exact only while half < n.
    idx = np.arange(-half, n + half)
    if boundary == "periodic":
        return np.mod(idx, n)
    idx = np.where(idx < 0, -idx - 1, idx)
    idx = np.where(idx >= n, 2 * n - idx - 1, idx)
    return idx


def _valid_correlate(arr, kernel, axis):
    windows = np.lib.stride_tricks.sliding_window_view(arr, kernel.size, axis=axis)
    return np.tensordot(windows, kernel, axes=([-1], [0]))


def _valid_correlate_adjoint(v, kernel, axis):
    pad = [(0, 0), (0, 0)]
    pad[axis] = (kernel.size - 1, kernel.size - 1)
    return _valid_correlate(np.pad(v, pad), kernel[::-1], axis)


class PadCorrelateBlur:
    """Reference blur: pad through index maps, then separable valid
    correlation; the adjoint folds the padded contributions back."""

    def __init__(self, rows, cols, width, sigma, boundary):
        self.rows, self.cols = rows, cols
        self.kernel = gaussian_kernel1d(width, sigma)
        self.row_map = _pad_index_map(rows, width // 2, boundary)
        self.col_map = _pad_index_map(cols, width // 2, boundary)

    def apply(self, x):
        img = x.reshape(self.rows, self.cols)
        padded = img[self.row_map][:, self.col_map]
        out = _valid_correlate(padded, self.kernel, axis=0)
        return _valid_correlate(out, self.kernel, axis=1).reshape(-1)

    def adjoint(self, v):
        up = _valid_correlate_adjoint(v.reshape(self.rows, self.cols), self.kernel, axis=1)
        up = _valid_correlate_adjoint(up, self.kernel, axis=0)
        tmp = np.zeros((self.rows, up.shape[1]))
        np.add.at(tmp, self.row_map, up)
        out = np.zeros((self.cols, self.rows))
        np.add.at(out, self.col_map, tmp.T)
        return out.T.reshape(-1)


def dot_test(op, x, v, tol=1e-10):
    lhs = float(op.apply(x) @ v)
    rhs = float(x @ op.adjoint_jacobian_apply(x, v))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= tol * scale


class TestApply:
    def test_identity(self):
        op = IdentityOperator(3)
        assert np.array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_blur_preserves_constant(self):
        for boundary in ("reflect", "periodic"):
            op = GaussianBlurOperator(6, 7, width=5, sigma=1.2, boundary=boundary)
            out = op.apply(np.full(42, 0.37))
            assert np.allclose(out, 0.37, atol=1e-14)

    def test_blur_impulse_stamps_kernel(self):
        # Unit impulse at the center of a 5x5 grid with a 3x3 kernel: the
        # response is the separable kernel written out around the center.
        op = GaussianBlurOperator(5, 5, width=3, sigma=1.0)
        x = np.zeros(25)
        x[12] = 1.0
        out = op.apply(x).reshape(5, 5)
        k1 = gaussian_kernel1d(3, 1.0)
        stamp = np.outer(k1, k1)
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = stamp
        assert np.allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        op = GaussianBlurOperator(4, 4, width=3, sigma=1.0)
        with pytest.raises(DimensionMismatch):
            op.apply(np.zeros(15))

    def test_mean_preserved_periodic(self):
        rng = np.random.default_rng(0)
        op = GaussianBlurOperator(8, 8, width=5, sigma=1.5, boundary="periodic")
        x = rng.uniform(size=64)
        assert np.mean(op.apply(x)) == pytest.approx(np.mean(x), abs=1e-13)


class TestAgainstPadCorrelate:
    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    @pytest.mark.parametrize(
        "rows,cols,width", [(16, 16, 5), (6, 7, 3), (7, 9, 5), (3, 3, 3), (5, 4, 7), (1, 6, 5)]
    )
    def test_apply_and_adjoint_match(self, rows, cols, width, boundary):
        rng = np.random.default_rng(8)
        op = GaussianBlurOperator(rows, cols, width=width, sigma=1.5, boundary=boundary)
        ref = PadCorrelateBlur(rows, cols, width, 1.5, boundary)
        for _ in range(3):
            x = rng.standard_normal(rows * cols)
            assert np.max(np.abs(op.apply(x) - ref.apply(x))) <= 1e-14
            assert np.max(np.abs(op.adjoint_jacobian_apply(x, x) - ref.adjoint(x))) <= 1e-14


class TestWideKernelReflect:
    """Kernels at least as wide as the grid reflect more than once."""

    @staticmethod
    def symmetric_pad_blur(img, width, sigma):
        kernel = gaussian_kernel1d(width, sigma)
        padded = np.pad(img, width // 2, mode="symmetric")
        out = _valid_correlate(padded, kernel, axis=0)
        return _valid_correlate(out, kernel, axis=1)

    @pytest.mark.parametrize("rows,cols", [(1, 8), (2, 2), (3, 1)])
    def test_matches_repeated_symmetric_padding(self, rows, cols):
        rng = np.random.default_rng(9)
        op = GaussianBlurOperator(rows, cols, width=7, sigma=2.0)
        img = rng.standard_normal((rows, cols))
        expected = self.symmetric_pad_blur(img, 7, 2.0)
        assert np.allclose(op.apply(img.reshape(-1)), expected.reshape(-1), atol=1e-14)

    def test_two_by_two_fold(self):
        # Positions -3..4 of a 2-pixel axis under half-sample symmetry.
        op = GaussianBlurOperator(2, 2, width=7, sigma=2.0)
        k = op.kernel
        expected = [
            [k[2] + k[3] + k[6], k[0] + k[1] + k[4] + k[5]],
            [k[1] + k[2] + k[5] + k[6], k[0] + k[3] + k[4]],
        ]
        assert np.allclose(op.row_matrix, expected, atol=1e-15)


class TestAdjoint:
    def test_identity_returns_v(self):
        op = IdentityOperator(4)
        v = np.array([0.5, -1.0, 2.0, 0.0])
        assert np.array_equal(op.adjoint_jacobian_apply(np.zeros(4), v), v)

    def test_linear_matrix(self):
        op = MatrixOperator([[1.0, 2.0], [3.0, 4.0]])
        out = op.adjoint_jacobian_apply(np.zeros(2), [1.0, 0.0])
        assert np.array_equal(out, [1.0, 2.0])

    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    def test_blur_dot_test(self, boundary):
        rng = np.random.default_rng(3)
        op = GaussianBlurOperator(7, 9, width=5, sigma=1.5, boundary=boundary)
        for _ in range(5):
            dot_test(op, rng.standard_normal(63), rng.standard_normal(63))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        width=st.sampled_from([1, 3, 5, 7]),
        boundary=st.sampled_from(["reflect", "periodic"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blur_dot_test_property(self, rows, cols, width, boundary, seed):
        rng = np.random.default_rng(seed)
        op = GaussianBlurOperator(rows, cols, width=width, sigma=1.3, boundary=boundary)
        dot_test(op, rng.standard_normal(rows * cols), rng.standard_normal(rows * cols))

    def test_matrix_dot_test(self):
        rng = np.random.default_rng(4)
        op = MatrixOperator(rng.standard_normal((3, 5)))
        for _ in range(5):
            dot_test(op, rng.standard_normal(5), rng.standard_normal(3))

    def test_blur_adjoint_matches_transpose(self):
        op = GaussianBlurOperator(4, 5, width=3, sigma=1.0)
        jac = materialize_jacobian(op)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(20)
        assert np.allclose(op.adjoint_jacobian_apply(np.zeros(20), v), jac.T @ v, atol=1e-13)

    def test_saturation_chain_rule(self):
        # <dH(x) d, v> == <d, dH(x)^T v> with the directional derivative
        # approximated by central differences.
        rng = np.random.default_rng(6)
        inner = GaussianBlurOperator(4, 4, width=3, sigma=1.0)
        op = SaturationWrapper(inner)
        x = rng.uniform(0.2, 0.8, size=16)
        d = rng.standard_normal(16)
        v = rng.standard_normal(16)
        eps = 1e-6
        directional = (op.apply(x + eps * d) - op.apply(x - eps * d)) / (2 * eps)
        rhs = d @ op.adjoint_jacobian_apply(x, v)
        assert directional @ v == pytest.approx(rhs, rel=1e-6)
        assert np.allclose(op.jacobian_apply(x, d), directional, atol=1e-8)
        assert op.jacobian_apply(x, d) @ v == pytest.approx(rhs, rel=1e-12)
        with pytest.raises(ValueError, match="nonlinear"):
            materialize_jacobian(op)

    def test_linear_jacobian_applies_the_operator(self):
        rng = np.random.default_rng(7)
        for op in (IdentityOperator(6), MatrixOperator(rng.standard_normal((4, 6))),
                   GaussianBlurOperator(2, 3, width=3, sigma=1.0, boundary="periodic")):
            x, v = rng.standard_normal(6), rng.standard_normal(6)
            assert np.array_equal(op.jacobian_apply(x, v), op.apply(v))


class TestJacobianStructure:
    def test_one_dim_convolution_is_toeplitz(self):
        op = GaussianBlurOperator(1, 12, width=3, sigma=0.8)
        assert blur_jacobian_structure_check(op)

    def test_identity_trivially_toeplitz(self):
        assert blur_jacobian_structure_check(IdentityOperator(6))

    def test_bandwidth_matches_kernel_support(self):
        op = GaussianBlurOperator(1, 8, width=3, sigma=1.0)
        jac = materialize_jacobian(op)
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 1:
                    assert jac[i, j] == 0.0

    def test_two_dim_blur_rejected(self):
        op = GaussianBlurOperator(3, 3, width=3, sigma=1.0)
        with pytest.raises(ValueError):
            blur_jacobian_structure_check(op)

    def test_non_toeplitz_detected(self):
        op = MatrixOperator(np.diag([1.0, 2.0, 3.0]))
        assert not blur_jacobian_structure_check(op)


class TestKernel:
    def test_normalized(self):
        for width, sigma in ((3, 1.0), (5, 1.5), (7, 0.7)):
            assert gaussian_kernel1d(width, sigma).sum() == pytest.approx(1.0, abs=1e-12)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel1d(4, 1.0)


class TestImageIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = ImageGrid(5, 6, rng.uniform(size=30))
        path = tmp_path / "img.pgm"
        write_pgm(grid, path)
        back = read_pgm(path)
        assert back.rows == 5 and back.cols == 6
        # 8-bit quantization error only.
        assert np.max(np.abs(back.intensities - grid.intensities)) <= 0.5 / 255

    def test_write_clamps_only_at_save(self, tmp_path):
        grid = ImageGrid(1, 3, [-0.5, 0.5, 1.7])
        assert np.array_equal(grid.intensities, [-0.5, 0.5, 1.7])
        path = tmp_path / "clamp.pgm"
        write_pgm(grid, path)
        back = read_pgm(path)
        assert np.allclose(back.intensities, [0.0, 0.5, 1.0], atol=0.5 / 255)

    def test_write_deterministic_bytes(self, tmp_path):
        grid = ImageGrid(2, 2, [0.0, 0.25, 0.5, 1.0])
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(grid, p1)
        write_pgm(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 128\n255 64\n")
        grid = read_pgm(path)
        expected = np.array([[0.0, 128 / 255], [1.0, 64 / 255]])
        assert np.allclose(grid.intensities.reshape(2, 2), expected)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P5\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ImageIoError):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_text("P2\n2 2\n255\n0 0 0\n")
        with pytest.raises(ImageIoError):
            read_pgm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImageIoError):
            read_pgm(tmp_path / "absent.pgm")

    def test_grid_validation(self):
        with pytest.raises(DimensionMismatch):
            ImageGrid(2, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            ImageGrid(1, 2, [np.nan, 0.0])
