"""Unit tests for repro.core.factor_cache (the factorization-reuse layer)."""

import numpy as np
import pytest

from repro.core.distances import cross_distances
from repro.core.estimator import KrigingEstimator
from repro.core.factor_cache import FactorCache, FactorCacheStats, GammaFactor
from repro.core.kriging import _bordered_system, _solve
from repro.core.models import ExponentialVariogram, LinearVariogram


VARIOGRAM = ExponentialVariogram(sill=25.0, range_=8.0)


def _cloud(n=80, nv=4, seed=0):
    """Continuous support points: strictly-PD Gamma systems."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=(n, nv)), rng


def _reference_solution(points, variogram, gamma_queries):
    system = _bordered_system(points, variogram, "l1")
    rhs = np.vstack([gamma_queries, np.ones((1, gamma_queries.shape[1]))])
    return _solve(system, rhs)


def _signature(rng, n_points, size):
    return tuple(sorted(rng.choice(n_points, size=size, replace=False).tolist()))


class TestFactorSolve:
    def test_fresh_factor_matches_plain_solver(self):
        points, rng = _cloud()
        cache = FactorCache()
        signature = _signature(rng, 80, 30)
        factor = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert cache.stats.fresh == 1

        queries = rng.uniform(0.0, 10.0, size=(6, 4))
        gamma_queries = np.asarray(
            VARIOGRAM(cross_distances(points[factor.rows], queries, "l1"))
        )
        solution = factor.solve(gamma_queries)
        assert solution is not None
        reference = _reference_solution(points[factor.rows], VARIOGRAM, gamma_queries)
        np.testing.assert_allclose(solution, reference, rtol=1e-7, atol=1e-9)

    def test_derived_factor_matches_plain_solver(self):
        points, rng = _cloud(seed=1)
        cache = FactorCache()
        base_signature = _signature(rng, 80, 30)
        cache.factor_for(base_signature, points, VARIOGRAM, "l1")

        # Add two points, drop one: bridged by rank-1 edits, not refactorized.
        target = set(base_signature)
        added = sorted(set(range(80)) - target)[:2]
        derived_signature = tuple(sorted((target - {base_signature[3]}) | set(added)))
        factor = cache.factor_for(derived_signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert cache.stats.updates == 1
        assert cache.stats.update_points == 3
        assert cache.stats.fresh == 1  # only the base was factorized

        queries = rng.uniform(0.0, 10.0, size=(5, 4))
        gamma_queries = np.asarray(
            VARIOGRAM(cross_distances(points[factor.rows], queries, "l1"))
        )
        solution = factor.solve(gamma_queries)
        assert solution is not None
        reference = _reference_solution(points[factor.rows], VARIOGRAM, gamma_queries)
        np.testing.assert_allclose(solution, reference, rtol=1e-7, atol=1e-9)

    def test_factor_rows_are_signature_permutation(self):
        points, rng = _cloud(seed=2)
        cache = FactorCache()
        base = _signature(rng, 80, 20)
        cache.factor_for(base, points, VARIOGRAM, "l1")
        extended = tuple(sorted(set(base) | set(_signature(rng, 80, 2))))
        factor = cache.factor_for(extended, points, VARIOGRAM, "l1")
        assert factor is not None
        assert sorted(factor.rows.tolist()) == sorted(extended)


class TestCachePolicy:
    def test_exact_hit_returns_same_object(self):
        points, rng = _cloud(seed=3)
        cache = FactorCache()
        signature = _signature(rng, 80, 12)
        first = cache.factor_for(signature, points, VARIOGRAM, "l1")
        second = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert second is first
        assert cache.stats.hits == 1

    def test_min_support_bypass(self):
        points, rng = _cloud(seed=4)
        cache = FactorCache(min_support=8)
        assert cache.factor_for((0, 1, 2), points, VARIOGRAM, "l1") is None
        assert cache.stats.requests == 0

    def test_lru_eviction(self):
        points, rng = _cloud(seed=5)
        cache = FactorCache(capacity=2, max_update_points=0)
        signatures = [_signature(rng, 80, 10 + i) for i in range(3)]
        for signature in signatures:
            cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) signature refactorizes; the survivors hit.
        cache.factor_for(signatures[-1], points, VARIOGRAM, "l1")
        assert cache.stats.hits == 1
        cache.factor_for(signatures[0], points, VARIOGRAM, "l1")
        assert cache.stats.fresh == 4

    def test_invalidate_clears_everything(self):
        points, rng = _cloud(seed=6)
        cache = FactorCache()
        signature = _signature(rng, 80, 15)
        cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert set(cache._masks) == {signature}
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache._masks == {}
        cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert cache.stats.fresh == 2  # refactorized, not a hit

    def test_bitset_table_tracks_store_hit_evict(self):
        points, rng = _cloud(seed=11)
        cache = FactorCache(capacity=3, max_update_points=0)
        signatures = [_signature(rng, 80, 12 + i) for i in range(4)]
        for signature in signatures:
            cache.factor_for(signature, points, VARIOGRAM, "l1")
        # Oldest evicted: only live signatures keep a bitset, each with
        # exactly its support rows set.
        assert signatures[0] not in cache._masks
        assert set(cache._masks) == set(cache._entries) == set(signatures[1:])
        for signature, mask in cache._masks.items():
            assert mask == sum(1 << row for row in signature)
        # A hit reorders the LRU but leaves the table unchanged.
        before = dict(cache._masks)
        cache.factor_for(signatures[1], points, VARIOGRAM, "l1")
        assert list(cache._entries)[-1] == signatures[1]
        assert cache._masks == before

    def test_load_state_fills_bitset_table(self):
        points, rng = _cloud(seed=17)
        source = FactorCache(max_update_points=0)
        signatures = [_signature(rng, 80, 10 + i) for i in range(3)]
        for signature in signatures:
            source.factor_for(signature, points, VARIOGRAM, "l1")
        restored = FactorCache(capacity=2)
        assert restored.load_state(source.to_state()) == 3
        # Trimmed oldest-first to capacity, without counting evictions.
        assert set(restored._masks) == set(restored._entries) == set(signatures[1:])
        assert restored.stats.evictions == 0
        for signature, mask in restored._masks.items():
            assert mask == sum(1 << row for row in signature)

    def test_rank_deficient_gamma_fails_and_is_memoized(self):
        """The piecewise-linear variogram on a dense 2-D lattice patch has a
        rank-deficient Gamma: no PD shift exists, the cache memoizes the
        failure, and the solve path falls back (covered elsewhere)."""
        grid = np.stack(
            np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1
        ).reshape(-1, 2)
        cache = FactorCache()
        signature = tuple(range(36))
        linear = LinearVariogram(1.0)
        assert cache.factor_for(signature, grid, linear, "l1") is None
        assert cache.stats.failures == 1
        assert cache.factor_for(signature, grid, linear, "l1") is None
        assert cache.stats.failures == 1  # memoized, no second attempt

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FactorCache(capacity=0)
        with pytest.raises(ValueError, match="max_update_points"):
            FactorCache(max_update_points=-1)


class TestEstimatorIntegration:
    @staticmethod
    def _field(config):
        c = np.asarray(config, dtype=float)
        return float(c @ np.resize([1.0, -2.0, 0.5], c.size) + 3.0)

    def _seeded(self, rng, **kwargs):
        estimator = KrigingEstimator(
            self._field, 3, distance=6.0, nn_min=1, **kwargs
        )
        support = rng.uniform(0.0, 8.0, size=(120, 3))
        for point in support:
            row = estimator.cache.add(point, self._field(point))
            estimator.neighbor_index.insert(point, row)
        return estimator, support

    def test_reuse_on_off_same_estimates(self):
        rng = np.random.default_rng(8)
        queries = rng.uniform(1.0, 7.0, size=(40, 3))
        values = {}
        for enabled in (True, False):
            estimator, _ = self._seeded(
                np.random.default_rng(8),
                variogram=VARIOGRAM,
                factor_cache=enabled,
            )
            values[enabled] = [o.value for o in estimator.evaluate_batch(queries)]
            if enabled:
                assert estimator.stats.factor.requests > 0
        np.testing.assert_allclose(values[True], values[False], rtol=1e-9, atol=1e-12)

    def test_refit_invalidates_cached_factors(self):
        """A variogram refit must drop every cached factorization: with
        ``refit_interval=1`` each simulation refits, so estimates must match
        the no-reuse run exactly (no stale-variogram factors) and the cache
        must record one invalidation per fit."""
        rng = np.random.default_rng(9)
        # Alternate interpolation bursts with out-of-range queries that force
        # simulations (and therefore refits) mid-stream.
        near = rng.uniform(1.0, 7.0, size=(30, 3))
        far = rng.uniform(40.0, 60.0, size=(4, 3))
        sweep = np.vstack([near[:15], far[:2], near[15:], far[2:]])

        outcomes = {}
        stats = {}
        for enabled in (True, False):
            estimator, _ = self._seeded(
                np.random.default_rng(9),
                variogram="exponential",
                min_fit_points=4,
                refit_interval=1,
                factor_cache=enabled,
            )
            outcomes[enabled] = [o.value for o in estimator.evaluate_batch(sweep)]
            stats[enabled] = estimator.stats
        np.testing.assert_allclose(
            outcomes[True], outcomes[False], rtol=1e-9, atol=1e-12
        )
        factor = stats[True].factor
        # Refits are lazy (one per variogram access after new simulations),
        # so each far burst produces exactly one invalidation event.
        assert factor.invalidations >= 2
        assert stats[True].n_simulated == stats[False].n_simulated
        assert stats[True].n_simulated > 0

    def test_factor_stats_reachable_via_estimator(self):
        estimator, _ = self._seeded(np.random.default_rng(10), variogram=VARIOGRAM)
        assert isinstance(estimator.stats.factor, FactorCacheStats)
        assert estimator.factor_cache is not None
        assert estimator.factor_cache.stats is estimator.stats.factor

    def test_disabled_cache_keeps_zero_counters(self):
        estimator, _ = self._seeded(
            np.random.default_rng(11), variogram=VARIOGRAM, factor_cache=False
        )
        rng = np.random.default_rng(12)
        estimator.evaluate_batch(rng.uniform(1.0, 7.0, size=(10, 3)))
        assert estimator.factor_cache is None
        assert estimator.stats.factor.requests == 0

    def test_custom_cache_instance_adopted(self):
        cache = FactorCache(capacity=4, min_support=2)
        estimator, _ = self._seeded(
            np.random.default_rng(13), variogram=VARIOGRAM, factor_cache=cache
        )
        assert estimator.factor_cache is cache
        assert estimator.stats.factor is cache.stats


class TestByteBudget:
    def test_byte_budget_evicts_but_keeps_most_recent(self):
        points, rng = _cloud(n=120, seed=14)
        # Each 40-point factor holds two 40x40 float64 blocks (~25.6 kB);
        # a 30 kB budget fits exactly one.
        cache = FactorCache(capacity=64, max_bytes=30_000, max_update_points=0)
        first = _signature(rng, 120, 40)
        second = tuple(sorted(set(range(120)) - set(first)))[:40]
        cache.factor_for(first, points, VARIOGRAM, "l1")
        assert cache.nbytes > 0
        cache.factor_for(tuple(sorted(second)), points, VARIOGRAM, "l1")
        assert len(cache) == 1  # over budget: LRU evicted
        assert cache.stats.evictions == 1
        assert cache.nbytes <= 30_000

    def test_oversized_single_factor_still_cached(self):
        points, rng = _cloud(n=60, seed=15)
        cache = FactorCache(max_bytes=1_000)  # smaller than any 30-pt factor
        signature = _signature(rng, 60, 30)
        factor = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert len(cache) == 1  # the most recent factor always survives

    def test_invalidate_resets_bytes(self):
        points, rng = _cloud(seed=16)
        cache = FactorCache()
        cache.factor_for(_signature(rng, 80, 20), points, VARIOGRAM, "l1")
        cache.invalidate()
        assert cache.nbytes == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FactorCache(max_bytes=0)


class TestStatsPairsRoundtrip:
    def test_from_pairs_preserves_rate(self):
        stats = FactorCacheStats(hits=6, updates=10, fresh=4, failures=0)
        rebuilt = FactorCacheStats.from_pairs(stats.as_pairs())
        assert rebuilt.reuse_rate == stats.reuse_rate == pytest.approx(0.8)
        assert rebuilt.requests == stats.requests == 20

    def test_from_pairs_empty_is_nan(self):
        rebuilt = FactorCacheStats.from_pairs(())
        assert rebuilt.requests == 0
        assert np.isnan(rebuilt.reuse_rate)


def _closest_factor(cache, signature):
    """The factor `_closest` picks, without its distance."""
    found = cache._closest(signature)
    return None if found is None else found[0]


class TestClosestSemantics:
    """The bitset scan must pick exactly the factor the reference linear
    LRU scan picks — smallest symmetric difference, most recently used on
    ties — including at capacities far beyond the default, and report that
    factor's symmetric difference."""

    @staticmethod
    def _reference_closest(cache, signature):
        """Reference: a reversed frozenset scan of the whole LRU."""
        limit = cache._update_limit(signature)
        if limit == 0:
            return None
        target = frozenset(signature)
        best = None
        best_distance = limit + 1
        for cached_signature, factor in reversed(cache._entries.items()):
            distance = len(target.symmetric_difference(frozenset(cached_signature)))
            if 0 < distance < best_distance:
                best, best_distance = factor, distance
                if distance <= 1:
                    break
        return best

    @staticmethod
    def _fake_factor(signature, cache):
        """A solve-free stand-in: `_closest` only reads rows/identity."""
        rows = np.asarray(signature, dtype=np.int64)
        return GammaFactor(rows, np.zeros((2, 2)), 1.0, np.eye(2), stats=cache.stats)

    def _populated(self, rng, *, capacity, n_rows, n_stored, sizes, **kwargs):
        cache = FactorCache(capacity=capacity, **kwargs)
        for _ in range(n_stored):
            size = int(rng.integers(*sizes))
            signature = tuple(sorted(rng.choice(n_rows, size=size, replace=False).tolist()))
            if signature not in cache._entries:
                cache._store(signature, self._fake_factor(signature, cache))
        # Shuffle recency so MRU order differs from insertion order.
        stored = list(cache._entries)
        for signature in rng.permutation(len(stored))[: len(stored) // 2]:
            key = stored[int(signature)]
            cache._entries.move_to_end(key)
        return cache

    def _queries(self, rng, cache, n_rows, n_queries):
        stored = list(cache._entries)
        queries = []
        for _ in range(n_queries):
            mode = rng.integers(0, 3)
            if mode == 0 and stored:  # perturbation of a stored signature
                base = set(stored[int(rng.integers(0, len(stored)))])
                for row in rng.choice(n_rows, size=int(rng.integers(1, 6)), replace=False):
                    base.symmetric_difference_update({int(row)})
                if base:
                    queries.append(tuple(sorted(base)))
            elif mode == 1:  # small signature (exercises the disjoint path)
                size = int(rng.integers(4, 7))
                queries.append(
                    tuple(sorted(rng.choice(n_rows, size=size, replace=False).tolist()))
                )
            else:  # unrelated random signature
                size = int(rng.integers(8, 40))
                queries.append(
                    tuple(sorted(rng.choice(n_rows, size=size, replace=False).tolist()))
                )
        return queries

    @pytest.mark.parametrize("max_update_points", [None, 24])
    def test_capacity_512_matches_linear_scan(self, max_update_points):
        rng = np.random.default_rng(42)
        cache = self._populated(
            rng,
            capacity=512,
            n_rows=300,
            n_stored=700,  # forces evictions past capacity
            sizes=(4, 40),
            max_update_points=max_update_points,
        )
        assert len(cache) == 512
        queries = self._queries(rng, cache, n_rows=300, n_queries=300)
        for query in queries:
            if query in cache._entries:
                continue  # factor_for answers exact hits before _closest
            assert _closest_factor(cache, query) is self._reference_closest(cache, query), query

    def test_small_cache_matches_linear_scan(self):
        rng = np.random.default_rng(7)
        cache = self._populated(
            rng, capacity=16, n_rows=60, n_stored=40, sizes=(4, 20),
            max_update_points=30,
        )
        for query in self._queries(rng, cache, n_rows=60, n_queries=200):
            if query in cache._entries:
                continue
            assert _closest_factor(cache, query) is self._reference_closest(cache, query), query

    def test_smaller_distance_beats_recency_ties_go_to_mru(self):
        cache = FactorCache(max_update_points=8)
        query = tuple(range(10, 30))
        # Stored oldest first, at distances 2, 3, 2 and 2 from the query.
        two_a, three, two_b, two_c = query[2:], query[3:], query[:-2], query[1:] + (40,)
        for signature in (two_a, three):
            cache._store(signature, self._fake_factor(signature, cache))
        # The older entry is closer: recency does not beat distance.
        assert cache._closest(query) == (cache._entries[two_a], 2)
        for signature in (two_b, two_c):
            cache._store(signature, self._fake_factor(signature, cache))
        assert cache._closest(query) == (cache._entries[two_c], 2)
        cache._entries.move_to_end(two_b)  # a hit makes it most recent
        assert cache._closest(query) == (cache._entries[two_b], 2)

    def test_reported_distance_is_symmetric_difference(self):
        rng = np.random.default_rng(3)
        cache = self._populated(
            rng, capacity=32, n_rows=80, n_stored=40, sizes=(4, 30),
            max_update_points=40,
        )
        for query in self._queries(rng, cache, n_rows=80, n_queries=100):
            if query in cache._entries:
                continue
            found = cache._closest(query)
            if found is None:
                continue
            factor, distance = found
            assert distance == len(set(query) ^ set(factor.rows.tolist()))

    def test_wide_row_ids_match_linear_scan(self):
        """Row ids past 10,000 make multi-word bitsets."""
        rng = np.random.default_rng(5)
        cache = self._populated(
            rng, capacity=64, n_rows=12_000, n_stored=80, sizes=(4, 40),
            max_update_points=24,
        )
        wide = [key for key in cache._entries if max(key) >= 10_000]
        assert wide
        queries = self._queries(rng, cache, n_rows=12_000, n_queries=200)
        # Near misses of stored wide signatures, so the scan has real
        # candidates rather than only unrelated sets.
        for key in wide[:20]:
            queries.append(tuple(sorted(set(key[1:]) | {10_000 + len(key)})))
        for query in queries:
            if query in cache._entries:
                continue
            assert _closest_factor(cache, query) is self._reference_closest(cache, query), query

    def test_restored_cache_matches_linear_scan(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0.0, 10.0, size=(60, 4))
        source = FactorCache(capacity=16, max_update_points=30)
        for _ in range(24):
            size = int(rng.integers(4, 20))
            source.factor_for(_signature(rng, 60, size), points, VARIOGRAM, "l1")
        restored = FactorCache(capacity=16, max_update_points=30)
        restored.load_state(source.to_state())
        assert list(restored._entries) == list(source._entries)
        for query in self._queries(rng, restored, n_rows=60, n_queries=200):
            if query in restored._entries:
                continue
            expected = self._reference_closest(restored, query)
            assert _closest_factor(restored, query) is expected, query

    def test_tiny_disjoint_signatures_match_linear_scan(self):
        """Tiny sets sharing no row are still within the update limit
        (distance is the plain size sum)."""
        rng = np.random.default_rng(13)
        cache = self._populated(
            rng, capacity=32, n_rows=400, n_stored=40, sizes=(4, 6),
        )
        checked = 0
        for _ in range(200):
            query = tuple(sorted(rng.choice(400, size=4, replace=False).tolist()))
            if query in cache._entries:
                continue
            expected = self._reference_closest(cache, query)
            assert _closest_factor(cache, query) is expected, query
            if expected is not None and not set(query) & set(expected.rows.tolist()):
                checked += 1
        assert checked > 0  # disjoint matches were actually exercised
