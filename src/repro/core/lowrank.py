"""Low-rank Cholesky maintenance: rank-1 up/downdates, row append/delete.

The factorization-reuse layer (:mod:`repro.core.factor_cache`) keeps Cholesky
factors of shifted Gamma matrices alive across batch flushes.  Optimizer-style
workloads grow the support cache one point at a time, so consecutive support
sets differ by a handful of rows; instead of re-running the O(n^3)
factorization, the cached factor is *edited*:

* :func:`chol_append` — extend ``L`` for a matrix bordered by one new
  row/column (one triangular solve, O(n^2));
* :func:`chol_delete` — remove row/column ``k`` (a rank-1 update of the
  trailing block, O((n-k)^2));
* :func:`cholupdate` / :func:`choldowndate` — the classical rank-1
  ``A +- x xT`` edits the delete path is built on.

The forward/backward substitutions are SciPy's ``solve_triangular``; the
edits themselves are NumPy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "cholupdate",
    "choldowndate",
    "chol_append",
    "chol_delete",
    "solve_lower",
    "solve_lower_transpose",
]


def solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (vector or matrix rhs)."""
    return solve_triangular(chol, rhs, lower=True, check_finite=False)


def solve_lower_transpose(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` for lower-triangular ``L`` (vector or matrix rhs)."""
    return solve_triangular(chol, rhs, lower=True, trans="T", check_finite=False)


def cholupdate(chol: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Rank-1 update: the Cholesky factor of ``L L^T + x x^T``.

    The classical Givens sweep (LINPACK ``dchud``): O(n^2), never fails for a
    genuine update.  ``chol`` is not modified; a new factor is returned.
    """
    out = np.array(chol, dtype=np.float64)
    x = np.array(vector, dtype=np.float64)
    n = out.shape[0]
    if x.shape != (n,):
        raise ValueError(f"update vector shape {x.shape} incompatible with ({n}, {n})")
    for k in range(n):
        lkk = out[k, k]
        r = math.hypot(lkk, x[k])
        c = r / lkk
        s = x[k] / lkk
        out[k, k] = r
        if k + 1 < n:
            column = out[k + 1 :, k]
            column += s * x[k + 1 :]
            column /= c
            x[k + 1 :] = c * x[k + 1 :] - s * column
    return out


def choldowndate(chol: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Rank-1 downdate: the Cholesky factor of ``L L^T - x x^T``.

    Raises :class:`numpy.linalg.LinAlgError` when the downdated matrix is not
    positive definite (the caller falls back to a fresh factorization).
    """
    out = np.array(chol, dtype=np.float64)
    x = np.array(vector, dtype=np.float64)
    n = out.shape[0]
    if x.shape != (n,):
        raise ValueError(f"downdate vector shape {x.shape} incompatible with ({n}, {n})")
    for k in range(n):
        lkk = out[k, k]
        r_sq = (lkk - x[k]) * (lkk + x[k])
        if r_sq <= 0.0 or not math.isfinite(r_sq):
            raise np.linalg.LinAlgError(
                f"downdate leaves the matrix indefinite at pivot {k}"
            )
        r = math.sqrt(r_sq)
        c = r / lkk
        s = x[k] / lkk
        out[k, k] = r
        if k + 1 < n:
            column = out[k + 1 :, k]
            column -= s * x[k + 1 :]
            column /= c
            x[k + 1 :] = c * x[k + 1 :] - s * column
    return out


def chol_append(chol: np.ndarray, cross: np.ndarray, diagonal: float) -> np.ndarray:
    """Extend ``L`` for the matrix bordered by one new row/column.

    Given ``L L^T = A`` returns the factor of ``[[A, b], [b^T, d]]`` where
    ``b`` is ``cross`` and ``d`` is ``diagonal`` — one forward substitution
    plus a scalar square root.  Raises :class:`numpy.linalg.LinAlgError` when
    the bordered matrix is not positive definite.
    """
    n = chol.shape[0]
    b = np.asarray(cross, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"cross vector shape {b.shape} incompatible with ({n}, {n})")
    row = solve_lower(chol, b) if n else np.empty(0)
    pivot_sq = float(diagonal) - float(row @ row)
    if pivot_sq <= 0.0 or not math.isfinite(pivot_sq):
        raise np.linalg.LinAlgError("appended row leaves the matrix indefinite")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = chol
    out[n, :n] = row
    out[n, n] = math.sqrt(pivot_sq)
    return out


def chol_delete(chol: np.ndarray, index: int) -> np.ndarray:
    """Remove row/column ``index`` from the factored matrix.

    The leading block is untouched; the trailing block absorbs the removed
    column through one rank-1 update (O((n - index)^2)).
    """
    n = chol.shape[0]
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for a {n}x{n} factor")
    out = np.zeros((n - 1, n - 1))
    out[:index, :index] = chol[:index, :index]
    out[index:, :index] = chol[index + 1 :, :index]
    if index < n - 1:
        out[index:, index:] = cholupdate(
            chol[index + 1 :, index + 1 :], chol[index + 1 :, index]
        )
    return out
