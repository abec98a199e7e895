"""Unit tests for repro.core.lowrank (Cholesky maintenance kernels).

Every edited factor is checked against a from-scratch ``np.linalg.cholesky``
of the correspondingly edited matrix — the ground truth the rank-1 algebra
must reproduce.
"""

import numpy as np
import pytest

from repro.core.lowrank import (
    chol_append,
    chol_delete,
    choldowndate,
    cholupdate,
    solve_lower,
    solve_lower_transpose,
)


def _spd(n, seed=0, jitter=None):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + (jitter if jitter is not None else n) * np.eye(n)
    return a, rng


class TestRankOneUpdates:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_update_matches_refactorization(self, n):
        a, rng = _spd(n, seed=n)
        chol = np.linalg.cholesky(a)
        x = rng.normal(size=n)
        updated = cholupdate(chol, x)
        np.testing.assert_allclose(
            updated, np.linalg.cholesky(a + np.outer(x, x)), rtol=1e-9, atol=1e-9
        )
        # Input factor untouched.
        np.testing.assert_array_equal(chol, np.linalg.cholesky(a))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_downdate_inverts_update(self, n):
        a, rng = _spd(n, seed=n + 100)
        chol = np.linalg.cholesky(a)
        x = rng.normal(size=n)
        roundtrip = choldowndate(cholupdate(chol, x), x)
        np.testing.assert_allclose(roundtrip, chol, rtol=1e-7, atol=1e-8)

    def test_downdate_rejects_indefinite(self):
        a, rng = _spd(6, seed=3)
        chol = np.linalg.cholesky(a)
        huge = 100.0 * rng.normal(size=6)
        with pytest.raises(np.linalg.LinAlgError):
            choldowndate(chol, huge)

    def test_shape_mismatch_rejected(self):
        chol = np.linalg.cholesky(_spd(4)[0])
        with pytest.raises(ValueError, match="incompatible"):
            cholupdate(chol, np.ones(3))
        with pytest.raises(ValueError, match="incompatible"):
            choldowndate(chol, np.ones(5))


class TestAppendDelete:
    def test_append_matches_bordered_refactorization(self):
        a, rng = _spd(12, seed=7)
        chol = np.linalg.cholesky(a)
        cross = rng.normal(size=12)
        diagonal = float(cross @ np.linalg.solve(a, cross)) + 2.0  # keeps PD
        grown = chol_append(chol, cross, diagonal)
        bordered = np.block(
            [[a, cross[:, None]], [cross[None, :], np.array([[diagonal]])]]
        )
        np.testing.assert_allclose(
            grown, np.linalg.cholesky(bordered), rtol=1e-9, atol=1e-9
        )

    def test_append_from_empty(self):
        grown = chol_append(np.zeros((0, 0)), np.zeros(0), 4.0)
        np.testing.assert_allclose(grown, [[2.0]])

    def test_append_rejects_indefinite_border(self):
        a, rng = _spd(8, seed=9)
        chol = np.linalg.cholesky(a)
        cross = rng.normal(size=8)
        bad_diagonal = float(cross @ np.linalg.solve(a, cross)) - 1.0
        with pytest.raises(np.linalg.LinAlgError):
            chol_append(chol, cross, bad_diagonal)

    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_delete_matches_submatrix_refactorization(self, index):
        a, _ = _spd(10, seed=11)
        chol = np.linalg.cholesky(a)
        shrunk = chol_delete(chol, index)
        keep = [i for i in range(10) if i != index]
        np.testing.assert_allclose(
            shrunk, np.linalg.cholesky(a[np.ix_(keep, keep)]), rtol=1e-8, atol=1e-8
        )

    def test_delete_out_of_range(self):
        chol = np.linalg.cholesky(_spd(4)[0])
        with pytest.raises(IndexError):
            chol_delete(chol, 4)

    def test_append_delete_roundtrip(self):
        a, rng = _spd(15, seed=13)
        chol = np.linalg.cholesky(a)
        cross = rng.normal(size=15)
        diagonal = float(cross @ np.linalg.solve(a, cross)) + 3.0
        roundtrip = chol_delete(chol_append(chol, cross, diagonal), 15)
        np.testing.assert_allclose(roundtrip, chol, rtol=1e-8, atol=1e-9)


class TestTriangularSolves:
    @pytest.mark.parametrize("rhs_shape", [(30,), (30, 1), (30, 9)])
    def test_solve_lower_matches_dense(self, rhs_shape):
        a, rng = _spd(30, seed=17)
        chol = np.linalg.cholesky(a)
        rhs = rng.normal(size=rhs_shape)
        np.testing.assert_allclose(
            solve_lower(chol, rhs), np.linalg.solve(chol, rhs), rtol=1e-9, atol=1e-10
        )
        np.testing.assert_allclose(
            solve_lower_transpose(chol, rhs),
            np.linalg.solve(chol.T, rhs),
            rtol=1e-9,
            atol=1e-10,
        )
