import pickle

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from csample.errors import DimensionMismatch, NotPositiveDefinite
from csample import linalg_rng
from csample.linalg_rng import RngStream, SpdMatrix, sample_mvn


def lower_factor(a):
    """The cached Cholesky factor L of an SpdMatrix, as a dense matrix built
    column by column from L @ e_j."""
    return np.column_stack([a.factor_apply(e) for e in np.eye(a.order)])


class TestCholesky:
    def test_diagonal_square_roots(self):
        lower = lower_factor(SpdMatrix.from_diagonal([4.0, 9.0]))
        assert np.array_equal(lower, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.array_equal(lower_factor(SpdMatrix.identity(5)), np.eye(5))

    def test_two_by_two(self):
        a = SpdMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]])
        lower = lower_factor(a)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(lower, expected, rtol=0.0, atol=1e-15)
        recon = lower @ lower.T
        assert np.max(np.abs(recon - a.dense())) <= 1e-12 * np.max(np.abs(a.dense()))

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 7, 20, 41):
            g = rng.standard_normal((n, n))
            a = SpdMatrix.from_dense(g @ g.T + n * np.eye(n))
            lower = lower_factor(a)
            err = np.max(np.abs(lower @ lower.T - a.dense()))
            assert err <= 1e-12 * np.max(np.abs(a.dense()))

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            SpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]).solve(np.ones(2))
        assert exc.value.pivot_index == 1
        # Pool workers return the error pickled; it must arrive whole.
        copy = pickle.loads(pickle.dumps(exc.value))
        assert (copy.pivot_index, str(copy)) == (1, str(exc.value))

    def test_diagonal_zero_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            SpdMatrix.from_diagonal([1.0, 0.0, 2.0]).logdet()
        assert exc.value.pivot_index == 1

    def test_relative_pivot_floor(self):
        # A pivot below 1e-13 of the largest diagonal entry must fail loudly.
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix.from_diagonal([1.0, 1e-15]).maha_sq(np.ones(2))

    def test_logdet(self):
        a = SpdMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]])
        assert a.logdet() == pytest.approx(np.log(np.linalg.det(a.dense())))


class TestSpdMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SpdMatrix.from_dense([[1.0, 0.2], [0.1, 1.0]])

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6))
        a = SpdMatrix.from_dense(g @ g.T + 6 * np.eye(6))
        v = rng.standard_normal(6)
        assert a.solve(v) == pytest.approx(np.linalg.solve(a.dense(), v))
        assert a.maha_sq(v) == pytest.approx(v @ np.linalg.solve(a.dense(), v))

    def test_scaled(self):
        a = SpdMatrix.from_diagonal([2.0, 3.0]).scaled(0.5)
        assert np.array_equal(a.diagonal(), [1.0, 1.5])

    def test_solve_arithmetic_is_pinned(self):
        # Every sampled artifact depends on these exact roundings: the
        # diagonal solve divides by l * l with l = sqrt(d), not by d, and the
        # dense solve is two triangular solves on the Fortran-ordered factor.
        rng = np.random.default_rng(5)
        d = rng.uniform(0.1, 10.0, 64)
        v = rng.standard_normal(64)
        l = np.sqrt(d)
        diag = SpdMatrix.from_diagonal(d)
        assert np.array_equal(diag.solve(v), v / (l * l))
        assert not np.array_equal(v / (l * l), v / d)
        w = v / l
        assert diag.maha_sq(v) == w @ w

        g = rng.standard_normal((6, 6))
        dense = SpdMatrix.from_dense(g @ g.T + 6 * np.eye(6))
        lower = linalg_rng.cholesky_stack(dense.dense()[None])[0]
        assert lower.flags.f_contiguous
        v = v[:6]
        inner = solve_triangular(lower, v, lower=True)
        expected = solve_triangular(lower, inner, lower=True, trans="T")
        assert np.array_equal(dense.solve(v), expected)


class TestRngStream:
    def test_replay_identical(self):
        a = RngStream(1, 0).standard_normal(3)
        b = RngStream(1, 0).standard_normal(3)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1, 0).standard_normal(8)
        b = RngStream(1, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1, 0).standard_normal(8)
        b = RngStream(2, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_clt_mean_bound(self):
        n = 10**5
        draws = RngStream(42, 0).standard_normal(n)
        assert abs(np.mean(draws)) <= 4.0 / np.sqrt(n)

    def test_child_is_keyed_and_independent_of_parent_draws(self):
        parent = RngStream(9, 4)
        fresh = parent.child(2, 3).uniform(5)
        parent.uniform(17)
        assert np.array_equal(parent.child(2, 3).uniform(5), fresh)
        assert np.array_equal(parent.child(2).child(3).uniform(5), fresh)
        assert parent.child(2, 3).key == (4, 2, 3)
        assert not np.array_equal(parent.child(3, 2).uniform(5), fresh)
        assert not np.array_equal(RngStream(9, 4).uniform(5), fresh)
        # A pickled child, as a pool worker receives it, draws the same.
        assert np.array_equal(pickle.loads(pickle.dumps(parent.child(2, 3))).uniform(5), fresh)
        with pytest.raises(ValueError):
            parent.child(-1)

    def test_uniform_in_unit_interval(self):
        u = RngStream(3, 0).uniform(1000)
        assert np.all((u >= 0.0) & (u < 1.0))


class _FixedStream:
    """Stand-in stream emitting a preset standard-normal vector."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def standard_normal(self, n):
        assert n == self._values.size
        return self._values.copy()


class TestSampleMvn:
    def test_identity_cov_passes_raw_draw(self):
        raw = RngStream(9, 0).standard_normal(4)
        out = sample_mvn(RngStream(9, 0), np.zeros(4), SpdMatrix.identity(4))
        assert np.array_equal(out, raw)

    def test_scalar_scaling(self):
        # mean 10, variance 4, z = 1.5 -> 10 + 2 * 1.5 = 13
        out = sample_mvn(_FixedStream([1.5]), [10.0], SpdMatrix.from_diagonal([4.0]))
        assert out == pytest.approx([13.0])

    def test_determinism(self):
        cov = SpdMatrix.from_dense([[2.0, 0.5], [0.5, 1.0]])
        a = sample_mvn(RngStream(4, 1), [1.0, 2.0], cov)
        b = sample_mvn(RngStream(4, 1), [1.0, 2.0], cov)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        mean = np.array([1.0, 2.0])
        cov = SpdMatrix.from_dense([[2.0, 0.5], [0.5, 1.0]])
        stream = RngStream(123, 0)
        draws = np.array([sample_mvn(stream, mean, cov) for _ in range(10**5)])
        emp = np.cov(draws.T, bias=True)
        assert np.all(np.abs(emp - cov.dense()) <= 0.05 * np.abs(cov.dense()))
        assert np.mean(draws, axis=0) == pytest.approx(mean, abs=0.02)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_mvn(RngStream(0), np.zeros(3), SpdMatrix.identity(2))

    def test_diagonal_sampling_avoids_dense_work(self, monkeypatch):
        def dense_call(*args, **kwargs):
            raise AssertionError("diagonal path reached a dense LAPACK routine")

        monkeypatch.setattr(linalg_rng, "dpotrf", dense_call)
        monkeypatch.setattr(linalg_rng, "solve_triangular", dense_call)
        cov = SpdMatrix.from_diagonal(np.linspace(0.5, 2.0, 64))
        stream = RngStream(7, 3)
        for _ in range(10):
            sample_mvn(stream, np.zeros(64), cov)
        assert cov.solve(np.ones(64)) == pytest.approx(1.0 / cov.diagonal())
        assert cov.maha_sq(np.ones(64)) > 0.0
        assert cov.logdet() == pytest.approx(np.sum(np.log(cov.diagonal())))
