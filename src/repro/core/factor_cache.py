"""LRU cache of Gamma-matrix Cholesky factorizations (the reuse layer).

The batch engine factorizes one bordered Gamma matrix per shared-support
group — and optimizer loops (descent, min-plus-one) revisit *near*-identical
support sets thousands of times while the cache grows one point at a time.
This module amortizes that: factorizations are cached by support-set
signature, and when a new group's support differs from a cached one by a few
points the cached factor is edited with O(n^2) row appends/deletes
(:mod:`repro.core.lowrank`) instead of refactorized from scratch.  The near
match is found by a most-recent-first scan over at most ``capacity`` cached
signatures, each held as a Python-int bitset of its support rows: a size
prefilter skips entries that cannot beat the best distance so far, the rest
cost one XOR and a popcount, and a distance of 1 stops the scan — O(capacity)
per miss.

The Gamma matrix itself (zero diagonal, conditionally negative definite) has
no Cholesky factorization, so the cache factors the classical *shifted*
matrix ``A = s 11^T - Gamma``, positive definite for a large enough shift
``s`` on strictly conditionally-negative-definite variograms.  Ordinary
kriging weights are invariant under the shift: with ``a = s 1 - g`` the
bordered system ``Gamma w + mu 1 = g, 1^T w = 1`` becomes ``A w - mu 1 = a``
under the same constraint, solved by two triangular backsolves per flush
instead of a fresh O(n^3) factorization.

Accuracy is guarded twice: a factor whose diagonal spread signals bad
conditioning is refused (fresh path), and every solve's residual is checked
against the *original* bordered system — a miss falls back to the plain
LU/least-squares solver, so the reuse layer can never push results outside
the batch engine's ~1e-9 equivalence envelope.  A variogram refit changes
every Gamma entry, so the estimator invalidates the whole cache on refit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.distances import DistanceMetric, distances_to, pairwise_distances
from repro.core.lowrank import (
    chol_append,
    chol_delete,
    solve_lower,
    solve_lower_transpose,
)

__all__ = ["FactorCache", "FactorCacheStats", "GammaFactor"]

Signature = tuple[int, ...]
Variogram = Callable[[np.ndarray], np.ndarray]

#: Residual tolerance (relative to the right-hand-side scale) above which a
#: factored solve is rejected and the plain solver takes over.
RESIDUAL_RTOL = 1e-9

#: Largest tolerated ratio between the extreme diagonal entries of a factor
#: (a cheap lower bound on sqrt(cond)); beyond it the solution may drift past
#: the equivalence tolerance, so the factor is not used.
DIAGONAL_SPREAD_LIMIT = 1e4

#: Shift multipliers tried when factorizing ``s 11^T - Gamma``.
_SHIFT_GROWTH = (1.0, 4.0, 16.0)


@dataclass
class FactorCacheStats:
    """Effectiveness counters of one :class:`FactorCache`.

    ``hits`` are exact signature matches, ``updates`` factors derived from a
    near match by rank-1 row edits (``update_points`` rows in total), and
    ``fresh`` full factorizations.  ``fallbacks`` counts solves rejected by
    the residual check (answered by the plain solver), ``failures``
    support sets that produced no positive-definite factor at all, and
    ``invalidations`` whole-cache flushes (variogram refits).
    """

    hits: int = 0
    updates: int = 0
    update_points: int = 0
    fresh: int = 0
    fallbacks: int = 0
    failures: int = 0
    invalidations: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_fallback(self) -> None:
        """Thread-safe fallback increment (solves run on worker threads)."""
        with self._lock:
            self.fallbacks += 1

    @property
    def requests(self) -> int:
        """Factorizations asked of the cache (hits + updates + fresh + failures)."""
        return self.hits + self.updates + self.fresh + self.failures

    @property
    def reuse_rate(self) -> float:
        """Share of factorization requests served without an O(n^3) solve."""
        if self.requests == 0:
            return float("nan")
        return (self.hits + self.updates) / self.requests

    _COUNTER_NAMES = (
        "hits",
        "updates",
        "update_points",
        "fresh",
        "fallbacks",
        "failures",
        "invalidations",
        "evictions",
    )

    def as_pairs(self) -> tuple[tuple[str, int], ...]:
        """Counter name/value pairs, for frozen result dataclasses."""
        return tuple((name, getattr(self, name)) for name in self._COUNTER_NAMES)

    @classmethod
    def from_pairs(cls, pairs: tuple[tuple[str, int], ...]) -> "FactorCacheStats":
        """Rebuild a stats view from :meth:`as_pairs` output, so consumers
        holding the serialized counters (e.g. replay results) reuse the
        properties here instead of re-deriving them."""
        known = {name: value for name, value in pairs if name in cls._COUNTER_NAMES}
        return cls(**known)


class GammaFactor:
    """One cached factorization: ``chol @ chol.T ~= shift - gamma``.

    ``rows`` are the support cache rows in *factor order* — the order rows
    were appended, a permutation of the sorted signature.  Callers must feed
    support points/values in this order; weights come back in it too.
    ``gamma`` is the unbordered Gamma matrix in the same order, kept so
    solves can be residual-checked against the true system (the factor alone
    would hide any drift accumulated by successive row edits).
    """

    __slots__ = ("rows", "gamma", "shift", "chol", "ones_solve", "ones_sum", "stats")

    def __init__(
        self,
        rows: np.ndarray,
        gamma: np.ndarray,
        shift: float,
        chol: np.ndarray,
        stats: FactorCacheStats | None = None,
    ) -> None:
        self.rows = rows
        self.gamma = gamma
        self.shift = shift
        self.chol = chol
        self.stats = stats
        # A^-1 1 is shared by every query of every solve; it rides along the
        # first solve's right-hand-side block (one extra column instead of a
        # dedicated triangular-solve pair) and is memoized here.  Worker
        # threads racing on the memo write identical values (pure function
        # of the factor), so results stay deterministic.
        self.ones_solve: np.ndarray | None = None
        self.ones_sum = 0.0

    @property
    def n_support(self) -> int:
        return self.chol.shape[0]

    def well_conditioned(self) -> bool:
        """Cheap screen: the diagonal spread bounds sqrt(cond(A)) from below."""
        diag = np.diagonal(self.chol)
        dmin = float(diag.min())
        if dmin <= 0.0 or not np.isfinite(dmin):
            return False
        return float(diag.max()) / dmin <= DIAGONAL_SPREAD_LIMIT

    def solve(self, gamma_queries: np.ndarray) -> np.ndarray | None:
        """Solve the bordered kriging system for a ``(n, m)`` gamma block.

        Returns the ``(n + 1, m)`` solution (weight rows plus the Lagrange
        row, exactly the plain solver's layout) or ``None`` when the residual
        check fails — the caller then solves the bordered system directly.
        """
        n, m = gamma_queries.shape
        ones_solve = self.ones_solve
        rhs = np.empty((n, m + 1 if ones_solve is None else m))
        rhs[:, :m] = self.shift - gamma_queries  # a = s 1 - g
        if ones_solve is None:
            rhs[:, m] = 1.0
        solved = solve_lower_transpose(self.chol, solve_lower(self.chol, rhs))
        if ones_solve is None:
            ones_solve = solved[:, m]
            solved = solved[:, :m]
            self.ones_sum = float(ones_solve.sum())
            self.ones_solve = ones_solve
        if not (np.isfinite(self.ones_sum) and self.ones_sum > 0.0):
            if self.stats is not None:
                self.stats.count_fallback()
            return None
        lagrange = (solved.sum(axis=0) - 1.0) / self.ones_sum  # nu, (m,)
        weights = solved - ones_solve[:, None] * lagrange[None, :]

        # Residual of the *original* system: Gamma w - nu 1 - g and 1^T w - 1.
        residual_top = self.gamma @ weights - lagrange[None, :] - gamma_queries
        residual_sum = weights.sum(axis=0) - 1.0
        scale = max(1.0, float(np.abs(gamma_queries).max(initial=0.0)))
        worst = max(
            float(np.abs(residual_top).max(initial=0.0)),
            float(np.abs(residual_sum).max(initial=0.0)),
        )
        if not np.isfinite(worst) or worst > RESIDUAL_RTOL * scale:
            if self.stats is not None:
                self.stats.count_fallback()
            return None
        return np.vstack([weights, -lagrange[None, :]])


class FactorCache:
    """LRU of :class:`GammaFactor` instances keyed by support signature.

    Parameters
    ----------
    capacity:
        Maximum number of cached factors (least recently used evicted).
    max_bytes:
        Memory budget for the cached factors' arrays (each holds two dense
        ``n x n`` float64 blocks, so entry-count alone does not bound
        memory on large-neighbourhood sweeps).  Least recently used
        entries are evicted past the budget; the most recent factor is
        always kept so derive chains survive even oversized supports.
    max_update_points:
        Largest symmetric difference between a requested signature and a
        cached one that is bridged by row appends/deletes; farther sets are
        factorized fresh.  The default (``None``) adapts to the support
        size — ``max(8, n // 8)`` — since k rank-1 edits beat an O(n^3)
        refactorization for any k well below ``n``.
    min_support:
        Support sets smaller than this bypass the cache entirely — their
        O(n^3) factorization is already trivial.
    stats:
        Counter sink, shared with the estimator's
        :class:`~repro.core.estimator.EstimatorStats`.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        max_bytes: int = 256 * 1024 * 1024,
        max_update_points: int | None = None,
        min_support: int = 4,
        stats: FactorCacheStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_update_points is not None and max_update_points < 0:
            raise ValueError(f"max_update_points must be >= 0, got {max_update_points}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.max_update_points = max_update_points
        self.min_support = min_support
        self._bytes = 0
        self.stats = stats if stats is not None else FactorCacheStats()
        self._entries: OrderedDict[Signature, GammaFactor] = OrderedDict()
        # One bitset per cached signature (bit ``r`` set for support row
        # ``r``): a near-match's symmetric difference is one XOR and a
        # popcount, so `_closest` scans the whole LRU cheaply.
        self._masks: dict[Signature, int] = {}
        # Support sets with no PD factorization (rank-deficient Gammas are
        # routine on lattice workloads); memoized so a signature the
        # optimizer keeps revisiting does not pay a doomed O(n^3) Cholesky
        # attempt on every flush.
        self._failed: set[Signature] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached factors' arrays."""
        return self._bytes

    def invalidate(self) -> None:
        """Drop every cached factor (the variogram changed under them)."""
        self._entries.clear()
        self._masks.clear()
        self._failed.clear()
        self._bytes = 0
        self.stats.invalidations += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def factor_for(
        self,
        signature: Signature,
        points: np.ndarray,
        variogram: Variogram,
        metric: DistanceMetric | str,
    ) -> GammaFactor | None:
        """A usable factor for ``signature``, reused/derived/built — or
        ``None`` when no well-conditioned factorization exists.

        Must be called from a single thread (the estimator derives factors
        during group assembly, before any parallel dispatch), so cache order
        — and therefore every derived factor — is deterministic.
        """
        if len(signature) < self.min_support:
            return None
        entry = self._entries.get(signature)
        if entry is not None:
            self._entries.move_to_end(signature)
            self.stats.hits += 1
            return entry
        if signature in self._failed:
            return None

        closest = self._closest(signature)
        if closest is not None:
            base, distance = closest
            derived = self._derive(base, signature, points, variogram, metric)
            if derived is not None:
                self.stats.updates += 1
                self.stats.update_points += distance
                self._store(signature, derived)
                return derived

        fresh = self._fresh(signature, points, variogram, metric)
        if fresh is None:
            self.stats.failures += 1
            if len(self._failed) >= 8 * self.capacity:
                self._failed.clear()
            self._failed.add(signature)
            return None
        self.stats.fresh += 1
        self._store(signature, fresh)
        return fresh

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The cached factors as arrays, in LRU order (oldest first).

        Each entry carries the support rows, the unbordered Gamma block, the
        Cholesky factor and the shift — everything :class:`GammaFactor`
        needs except the lazily derived ``A^-1 1`` memo.  Rides inside the
        estimator/session snapshot so restore, cluster migration and
        failover start *warm*: a restored session replaying its workload
        refactorizes nothing.
        """
        return {
            "version": 1,
            "entries": [
                {
                    "rows": np.asarray(factor.rows, dtype=np.int64),
                    "gamma": np.asarray(factor.gamma, dtype=np.float64),
                    "chol": np.asarray(factor.chol, dtype=np.float64),
                    "shift": float(factor.shift),
                }
                for factor in self._entries.values()
            ],
        }

    def load_state(self, state: dict) -> int:
        """Restore factors from :meth:`to_state` output; returns the count.

        Every entry is validated (shapes, finiteness) before the first one
        is inserted, so a corrupted snapshot raises ``ValueError`` and
        leaves the cache cold rather than half-loaded.  Entries beyond the
        cache's capacity/byte budget are trimmed oldest-first without
        counting as runtime evictions — restore trimming is a sizing
        artifact, not cache behaviour.
        """
        if int(state.get("version", -1)) != 1:
            raise ValueError(
                f"unsupported factor-cache state version {state.get('version')!r}"
            )
        loaded: list[GammaFactor] = []
        for entry in state["entries"]:
            # Copies, not views: rank-1 updates edit factors in place, and
            # one state dict may seed several restores (or be re-snapshot).
            rows = np.array(entry["rows"], dtype=np.int64)
            gamma = np.array(entry["gamma"], dtype=np.float64)
            chol = np.array(entry["chol"], dtype=np.float64)
            shift = float(entry["shift"])
            n = rows.shape[0]
            if rows.ndim != 1 or n == 0 or gamma.shape != (n, n) or chol.shape != (n, n):
                raise ValueError("malformed factor-cache entry")
            if not (
                np.isfinite(shift)
                and bool(np.all(np.isfinite(gamma)))
                and bool(np.all(np.isfinite(chol)))
            ):
                raise ValueError("non-finite factor-cache entry")
            loaded.append(GammaFactor(rows, gamma, shift, chol, stats=self.stats))
        for factor in loaded:
            self._insert(tuple(sorted(factor.rows.tolist())), factor)
        return len(loaded)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _factor_bytes(factor: GammaFactor) -> int:
        return factor.gamma.nbytes + factor.chol.nbytes + factor.rows.nbytes

    @staticmethod
    def _mask(signature: Signature) -> int:
        mask = 0
        for row in signature:
            mask |= 1 << row
        return mask

    def _store(self, signature: Signature, factor: GammaFactor) -> None:
        self.stats.evictions += self._insert(signature, factor)

    def _insert(self, signature: Signature, factor: GammaFactor) -> int:
        """Insert as most recently used, then trim the LRU to capacity and
        byte budget (always keeping the newest entry); returns the number
        of entries evicted."""
        self._entries[signature] = factor
        self._entries.move_to_end(signature)
        self._masks[signature] = self._mask(signature)
        self._bytes += self._factor_bytes(factor)
        evicted = 0
        while len(self._entries) > 1 and (
            len(self._entries) > self.capacity or self._bytes > self.max_bytes
        ):
            old_signature, old = self._entries.popitem(last=False)
            del self._masks[old_signature]
            self._bytes -= self._factor_bytes(old)
            evicted += 1
        return evicted

    def _update_limit(self, signature: Signature) -> int:
        if self.max_update_points is not None:
            return self.max_update_points
        return max(8, len(signature) // 8)

    def _closest(self, signature: Signature) -> tuple[GammaFactor, int] | None:
        """The closest cached factor within the update limit and its
        symmetric difference to ``signature`` — smallest difference, most
        recently used on ties.

        A most-recent-first scan over at most ``capacity`` bitsets: an
        entry whose size alone differs by at least the best distance so far
        is skipped, the rest cost one XOR and a popcount, only strictly
        smaller distances replace the best (so ties keep the more recent
        entry), and a distance of 1 ends the scan.  O(capacity) per miss.
        """
        limit = self._update_limit(signature)
        if limit == 0 or not self._entries:
            return None
        target = self._mask(signature)
        target_len = len(signature)
        masks = self._masks
        best: Signature | None = None
        best_distance = limit + 1
        for cached in reversed(self._entries):
            if abs(len(cached) - target_len) >= best_distance:
                continue
            distance = (target ^ masks[cached]).bit_count()
            if distance < best_distance:
                best, best_distance = cached, distance
                if distance <= 1:
                    break
        if best is None:
            return None
        return self._entries[best], best_distance

    def _derive(
        self,
        base: GammaFactor,
        signature: Signature,
        points: np.ndarray,
        variogram: Variogram,
        metric: DistanceMetric | str,
    ) -> GammaFactor | None:
        """Edit ``base`` into a factor for ``signature`` (None on breakdown)."""
        target = set(signature)
        chol = base.chol
        gamma = base.gamma
        rows = base.rows

        removals = np.flatnonzero([row not in target for row in rows.tolist()])
        try:
            for position in removals[::-1]:
                chol = chol_delete(chol, int(position))
                keep = np.delete(np.arange(rows.size), position)
                gamma = gamma[np.ix_(keep, keep)]
                rows = rows[keep]

            have = set(rows.tolist())
            for row in sorted(target - have):
                cross = np.asarray(
                    variogram(distances_to(points[rows], points[row], metric)),
                    dtype=np.float64,
                )
                chol = chol_append(chol, base.shift - cross, base.shift)
                size = gamma.shape[0]
                grown = np.empty((size + 1, size + 1))
                grown[:size, :size] = gamma
                grown[size, :size] = cross
                grown[:size, size] = cross
                grown[size, size] = 0.0
                gamma = grown
                rows = np.append(rows, row)
            factor = GammaFactor(rows, gamma, base.shift, chol, stats=self.stats)
        except np.linalg.LinAlgError:
            return None
        if not factor.well_conditioned():
            return None
        return factor

    def _fresh(
        self,
        signature: Signature,
        points: np.ndarray,
        variogram: Variogram,
        metric: DistanceMetric | str,
    ) -> GammaFactor | None:
        """Factorize the shifted Gamma matrix from scratch (None on failure)."""
        rows = np.asarray(signature, dtype=np.int64)
        gamma = np.asarray(
            variogram(pairwise_distances(points[rows], metric)), dtype=np.float64
        )
        np.fill_diagonal(gamma, 0.0)
        gamma_max = float(gamma.max(initial=0.0))
        if gamma_max <= 0.0 or not np.isfinite(gamma_max):
            return None
        for growth in _SHIFT_GROWTH:
            shift = growth * gamma_max
            try:
                chol = np.linalg.cholesky(shift - gamma)
                factor = GammaFactor(rows, gamma, shift, chol, stats=self.stats)
            except np.linalg.LinAlgError:
                continue
            if factor.well_conditioned():
                return factor
        return None
