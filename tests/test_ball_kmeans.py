import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granule.ball_kmeans import (
    BkmConfig,
    ConfigError,
    Dataset,
    Init,
    RunStats,
    _annulus_labels,
    _annulus_pass,
    _center_pairs,
    _centers_of,
    _cluster_groups,
    _Counter,
    _draw,
    _pair_tables,
    _repair_empty,
    init_clusters,
    lloyd_run,
    prune_neighbor_check,
    run,
)
from granule.metrics import _CHUNK_ENTRIES, Kind, chebyshev, euclidean, forward_gap, manhattan, squared_euclidean

from conftest import counting, make_blobs


def same_history(a, b):
    return len(a.history) == len(b.history) and all(
        np.array_equal(p, q) for p, q in zip(a.history, b.history)
    )


def assert_exact_with_counts(ds, cfg, counts):
    """run repeats lloyd_run's history with these (iterations, distances, prunings, neighbor-free)."""
    fast, stats = run(ds, cfg, record_history=True)
    naive, _ = lloyd_run(ds, cfg, record_history=True)
    assert same_history(fast, naive)
    assert (
        stats.iterations,
        stats.distance_computations,
        stats.prunings_fired,
        stats.neighbor_free_stable_clusters,
    ) == counts


def brute_force_assign(x, centers, assign):
    """Stay-on-tie movement oracle: full scan, lowest index among strict improvers."""
    d = np.stack([np.sqrt(((x - c) ** 2).sum(axis=1)) for c in centers], axis=1)
    best = d.min(axis=1)
    first = d.argmin(axis=1)
    cur = d[np.arange(x.shape[0]), assign]
    return np.where(cur == best, assign, first)


def annulus_pass(x, centers, radii, assign, fn=None):
    """``run``'s first-iteration pass against fixed centers: center pairs, then the annulus pass.

    Returns (new assignments, the distance counter).
    """
    counter = _Counter(fn or euclidean())
    d_own = counter.rows(x, centers[assign])
    dmat, _, _ = _center_pairs(centers, radii, _pair_tables(len(centers)), None, None, counter)
    new_assign, _, _ = _annulus_pass(x, centers, radii, assign, d_own, dmat, counter)
    return new_assign, counter


def annulus_labels(d, neighbor_dists, radius):
    """(bounds, labels) of ``_annulus_labels`` for ascending neighbor center distances.

    Every distance gets its own bound row, inf-padded by one column as in the
    annulus pass.
    """
    bounds = np.asarray(neighbor_dists, dtype=float) / 2.0
    rows = np.tile(np.append(bounds, np.inf), (len(d), 1))
    return bounds, _annulus_labels(np.asarray(d, dtype=float), rows, bounds.size, radius)


def digest_corpus():
    """240 seeded (dataset, config) cases over d 1-11: blobs, lattices at scales 1, 0.1 and 1e8, scales
    1e-6..1e6 and duplicate points, with both inits and three distances."""
    for i in range(240):
        rng = np.random.default_rng(i)
        d, n = int(rng.integers(1, 12)), int(rng.integers(5, 160))
        kind = i % 6
        if kind == 0:
            x = make_blobs(n, d, int(rng.integers(1, 6)), seed=i)
        elif kind < 4:
            x = rng.integers(0, 4, (n, d)) * (1.0, 0.1, 1e8)[kind - 1]
        elif kind == 4:
            x = rng.normal(0, 1, (n, d)) * 10.0 ** float(rng.integers(-6, 7))
        else:
            base = rng.normal(0, 1, (max(2, n // 5), d))
            x = base[rng.integers(0, len(base), n)]
        init = (Init.RANDOM_PARTITION, Init.PLUS_PLUS)[i % 2]
        fn = (euclidean, manhattan, chebyshev)[i % 5 % 3]()
        yield Dataset(x), BkmConfig(k=int(rng.integers(1, min(n, 12) + 1)), seed=i, init=init, distance=fn)


def both_runs(ds, cfg):
    """The clusterings of ``run`` and ``lloyd_run``."""
    return run(ds, cfg)[0], lloyd_run(ds, cfg)[0]


class TestDataset:
    def test_basic_shape(self):
        ds = Dataset(np.zeros((3, 2)))
        assert ds.n == 3 and ds.d == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(4))

    def test_rejects_zero_width(self):
        # points without coordinates would give a "converged" partition and a raw numpy error in chebyshev
        for empty in (np.empty((5, 0)), np.empty((0, 3)), np.empty((0, 0))):
            with pytest.raises(ValueError, match=r"non-empty \(n, d\) array"):
                Dataset(empty)


class TestInit:
    def test_singleton_partition_when_k_equals_n(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2))
        for seed in (0, 1, 99):
            sets = init_clusters(ds, BkmConfig(k=4, seed=seed))
            assert sorted(len(s) for s in sets) == [1, 1, 1, 1]

    def test_seed_reproducibility(self):
        ds = Dataset(np.arange(12.0).reshape(6, 2))
        cfg = BkmConfig(k=2, seed=7)
        first = init_clusters(ds, cfg)
        second = init_clusters(ds, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_k_above_n_rejected(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            init_clusters(ds, BkmConfig(k=5))

    @pytest.mark.parametrize("init", [Init.RANDOM_PARTITION, Init.PLUS_PLUS])
    def test_partition_postconditions(self, init):
        ds = Dataset(make_blobs(40, 3, 4, seed=2))
        sets = init_clusters(ds, BkmConfig(k=4, seed=3, init=init))
        flat = np.sort(np.concatenate(sets))
        assert np.array_equal(flat, np.arange(40))
        assert all(len(s) > 0 for s in sets)

    def test_plus_plus_survives_duplicate_points(self):
        ds = Dataset(np.ones((5, 2)))
        sets = init_clusters(ds, BkmConfig(k=3, seed=0, init=Init.PLUS_PLUS))
        assert all(len(s) > 0 for s in sets)

    def test_draw_is_rng_choice(self):
        # pins _draw to Generator.choice(n, p=p): a numpy whose choice draws otherwise fails here
        rng = np.random.default_rng(34)
        for case in range(3000):
            n = int(rng.integers(1, 5001)) if case % 2 else int(rng.integers(1, 30))
            w = rng.random(n) * 10.0 ** rng.uniform(-5, 5)
            if case % 4 == 1:  # mostly zeros
                w[rng.random(n) < 0.8] = 0.0
                w[rng.integers(n)] = 1.0
            elif case % 4 == 2:  # one nonzero entry
                w = np.zeros(n)
                w[rng.integers(n)] = rng.uniform(0.1, 10.0)
            elif case % 4 == 3:  # equal weights
                w = np.full(n, 2.5)
            total = float(w.sum())
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            assert _draw(w, total, ours) == theirs.choice(n, p=w / total), case
            assert ours.random() == theirs.random()  # the same generator state consumed

    def test_plus_plus_refuses_overflowing_distances(self):
        # the squared distances overflow to inf; a draw from that cdf of nans would go on quietly
        ds = Dataset(np.random.default_rng(0).normal(0, 1, (200, 3)) * 1e160)
        cfg = BkmConfig(k=3, init=Init.PLUS_PLUS)
        with np.errstate(over="ignore"):
            for fn in (run, lloyd_run):
                with pytest.raises(ConfigError, match="k-means\\+\\+ squared distances overflow float64"):
                    fn(ds, cfg)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            BkmConfig(k=0)
        with pytest.raises(ConfigError):
            BkmConfig(k=2, max_iter=0)

    @pytest.mark.parametrize(
        "field, value",
        [("k", 2.5), ("k", True), ("k", "2"), ("max_iter", 9.9), ("max_iter", np.True_), ("seed", 0.5), ("seed", True)],
    )
    def test_non_integral_config_refused(self, field, value):
        # a truncated k or max_iter, or k=True (one cluster), would run silently; seed=True ran as seed 1
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            BkmConfig(**{"k": 2, field: value})

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            BkmConfig(k=2, seed=-1)

    def test_integral_config_values_become_ints(self):
        cfg = BkmConfig(k=np.int64(3), max_iter=5.0, seed=np.uint32(7))
        assert (cfg.k, cfg.max_iter, cfg.seed) == (3, 5, 7)
        assert [type(v) for v in (cfg.k, cfg.max_iter, cfg.seed)] == [int] * 3


class TestCenters:
    def test_centers_are_member_means_bit_for_bit(self):
        # pins the sums of numpy's mean: down axis 0 in member order from +0.0 for d > 1, pairwise for d = 1
        rng = np.random.default_rng(34)
        for case in range(360):
            d, kind = case % 12 + 1, case // 12 % 5
            n = int(rng.integers(1, 1500))
            k = min(n, 300) if case % 7 == 0 else int(rng.integers(1, min(n, 300) + 1))
            if kind == 0:
                x = rng.normal(0, 1, (n, d)) * 10.0 ** rng.uniform(-8, 8)
            elif kind == 1:
                x = rng.integers(-3, 4, (n, d)) * 0.1
            elif kind == 2:  # signed zeros: a cluster of -0.0 coordinates has mean +0.0
                x = np.where(rng.random((n, d)) < 0.9, -0.0, rng.choice([0.0, 1.5, -2.25], (n, d)))
            elif kind == 3:
                base = rng.normal(0, 1e8, (max(1, n // 10), d))
                x = base[rng.integers(0, len(base), n)]
            else:
                x = rng.integers(0, 3, (n, d)) * 10.0 ** float(rng.integers(-8, 9))
            assign = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
            centers, order, bounds = _centers_of(x, assign, k)
            members = [np.flatnonzero(assign == j) for j in range(k)]
            assert centers.tobytes() == np.stack([x[m].mean(axis=0) for m in members]).tobytes(), case
            assert all(np.array_equal(order[bounds[j] : bounds[j + 1]], m) for j, m in enumerate(members))


class TestGeometry:
    def test_center_examples(self):
        ds = Dataset(np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0], [12.0, 10.0]]))
        for seed in range(4):
            for clustering in both_runs(ds, BkmConfig(k=2, seed=seed)):
                assert sorted(map(tuple, clustering.centers.tolist())) == [(1.0, 0.0), (11.0, 10.0)]

    def test_radius_examples(self):
        ds = Dataset(np.array([[0.0], [2.0], [7.0]]))
        for seed in range(4):
            for clustering in both_runs(ds, BkmConfig(k=2, seed=seed)):
                assert sorted(clustering.radii.tolist()) == [0.0, 1.0]  # {0, 2} about 1, {7} alone

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_radius_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (20, 3))
        for clustering in both_runs(Dataset(x), BkmConfig(k=3, seed=seed)):
            for i, center in enumerate(clustering.centers):
                members = x[clustering.assignments == i]
                assert np.allclose(center, members.mean(axis=0), rtol=0, atol=1e-12)
                expected = np.sqrt(((members - center) ** 2).sum(axis=1)).max()
                assert clustering.radii[i] == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _run_from(x, k, groups):
        """``run`` from the first seed whose initial partition is ``groups``."""
        ds = Dataset(np.array(x))
        seed = next(
            s for s in range(1000)
            if sorted(c.tolist() for c in init_clusters(ds, BkmConfig(k=k, seed=s))) == groups
        )
        return run(ds, BkmConfig(k=k, seed=seed))

    def test_neighbor_examples(self):
        # cluster j neighbors i iff d(c_i, c_j) < 2 r_i, strictly; the starting
        # partitions below are Lloyd-stable, so each run is one iteration
        _, stats = self._run_from([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.9]], 2, [[0, 1], [2]])
        assert stats.iterations == 1
        assert stats.neighbor_free_stable_clusters == 1  # 1.9 < 2: (+-1, 0) lie in an annulus
        assert stats.distance_computations == 3 + 1 + 2  # own, center pair, two annulus points
        _, stats = self._run_from([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]], 2, [[0, 1], [2]])
        assert stats.iterations == 1
        assert stats.neighbor_free_stable_clusters == 2  # 2 >= 2: no neighbors, all stable
        assert stats.distance_computations == 3 + 1
        _, stats = self._run_from([[0.0], [0.0]], 2, [[0], [1]])
        assert stats.neighbor_free_stable_clusters == 2  # 0 < 2 * 0 fails for coincident centers

    def test_stable_radius_examples(self):
        # the stable radius of cluster 0 is half its nearest neighbor distance:
        # 0.5 from B at distance 1, not 0.6 from C at distance 1.2
        x = np.array(
            [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, -0.5], [0.55, 0.0], [-0.55, 0.0]]
            + [[0.0, 1.0], [0.0, -1.2]]  # B, C
        )
        assign = np.array([0, 0, 0, 0, 0, 0, 1, 2])
        centers = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, -1.2]])
        radii = np.array([1.0, 0.0, 0.0])
        log = []
        new_assign, _ = annulus_pass(x, centers, radii, assign, counting(euclidean(), log))
        assert np.array_equal(new_assign, assign)
        # (0, +-0.5) sit on the stable radius and stay stable; (+-0.55, 0) lie in the first
        # annulus (0.5, 0.6] with one candidate, (+-1, 0) in the second with two
        assert [m for _, m in log] == [8, 3, 2 * 1 + 2 * 2]

    def test_annulus_boundaries(self):
        bounds, labels = annulus_labels(np.array([1.4]), np.array([2.0, 3.0, 4.0]), 2.0)
        assert bounds.tolist() == [1.0, 1.5, 2.0]
        assert labels.tolist() == [1]  # 1.0 < 1.4 <= 1.5

    def test_annulus_stable_point(self):
        _, labels = annulus_labels(np.array([1.0, 1.7, 1.5]), np.array([3.0]), 2.0)
        assert labels.tolist() == [0, 1, 0]  # boundary at 1.5 is inclusive

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_annulus_labels_match_loop_reference(self, seed):
        # grid values hit the boundaries exactly, with repeated neighbor distances
        rng = np.random.default_rng(seed)
        nd = np.sort(rng.choice([0.5, 1.0, 2.0, 3.0], size=int(rng.integers(1, 5))))
        d = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 2.0], size=20)
        radius = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        bounds, labels = annulus_labels(d, nd, radius)
        ref = np.zeros(d.size, dtype=int)
        for m in range(1, nd.size + 1):
            hi = bounds[m] if m < nd.size else radius
            ref[(d > bounds[m - 1]) & (d <= hi)] = m
        assert labels.tolist() == ref.tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_annulus_labels_partition_members(self, seed):
        rng = np.random.default_rng(seed)
        radius = float(rng.uniform(1, 5))
        dists = rng.uniform(0, radius, 20)
        ndists = np.sort(rng.uniform(0.1, 2 * radius, int(rng.integers(1, 5))))
        bounds, labels = annulus_labels(dists, ndists, radius)
        for d, lab in zip(dists, labels):
            if lab == 0:
                assert d <= bounds[0]
            else:
                lo = bounds[lab - 1]
                hi = bounds[lab] if lab < len(bounds) else radius
                assert lo < d <= hi

    def test_prune_examples(self):
        assert prune_neighbor_check(10.0, 2.0, 0.0, 0.0)
        assert prune_neighbor_check(4.0, 2.0, 0.0, 0.0)  # boundary: >= fires
        assert not prune_neighbor_check(3.9, 2.0, 0.0, 0.0)
        assert not prune_neighbor_check(10.0, 2.0, 4.0, 3.0)


class TestAnnulusPass:
    def test_all_stable_means_zero_moves(self):
        x = np.array([[0.0], [0.2], [10.0], [10.3]])
        centers = np.array([[0.1], [10.15]])
        radii = np.array([0.1, 0.15])
        assign = np.array([0, 0, 1, 1])
        new_assign, counter = annulus_pass(x, centers, radii, assign)
        assert np.array_equal(new_assign, assign)
        assert counter.count == 4 + 1  # own distances and the one center pair, no candidates

    def test_annulus_point_moves_to_closer_neighbor(self):
        x = np.array([[0.0], [1.9], [3.0]])
        centers = np.array([[0.0], [3.0]])
        radii = np.array([1.9, 0.0])
        assign = np.array([0, 0, 1])
        new_assign, _ = annulus_pass(x, centers, radii, assign)
        assert new_assign.tolist() == [0, 1, 1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_matches_full_argmin_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 30, int(rng.integers(2, 6))
        x = rng.normal(0, 5, (n, 2))
        assign = rng.integers(0, k, n)
        assign[:k] = np.arange(k)  # keep clusters non-empty
        centers = np.stack([x[assign == i].mean(axis=0) for i in range(k)])
        radii = np.array(
            [np.sqrt(((x[assign == i] - centers[i]) ** 2).sum(axis=1)).max() for i in range(k)]
        )
        new_assign, _ = annulus_pass(x, centers, radii, assign)
        assert np.array_equal(new_assign, brute_force_assign(x, centers, assign))

    def test_repair_refills_emptied_cluster(self):
        x = np.array([[0.0], [0.1], [0.2], [5.0]])
        # cluster 1 holds a single point that strictly prefers center 0
        centers = np.array([[0.1], [0.4]])
        radii = np.array([0.1, 0.2])
        assign = np.array([0, 0, 1, 0])
        bare, _ = annulus_pass(x, centers, radii, assign)
        assert np.bincount(bare, minlength=2)[1] == 0
        repaired, stats = bare.copy(), RunStats()
        donor = lambda mem, c: euclidean().rows(x[mem], centers[c])
        moved = _repair_empty(repaired, 2, donor, stats)
        assert moved.tolist() == [1] and stats.empty_cluster_repairs == 1
        assert repaired.tolist() == [0, 0, 0, 1]  # the farthest point of the donor refills it


class TestRun:
    def test_outputs_digest_pinned(self):
        # histories, centers, radii, ties and counts of run and lloyd_run over the corpus, recorded with
        # rng.choice draws and per-cluster slice sums, which _draw and _centers_of must reproduce
        h = hashlib.sha256()
        for ds, cfg in digest_corpus():
            for fn in (run, lloyd_run):
                c, s = fn(ds, cfg, record_history=True)
                h.update(np.array(c.history, dtype=np.int64).tobytes() + c.centers.tobytes() + c.radii.tobytes())
                h.update(repr((c.ties, c.converged, s.iterations, s.distance_computations)).encode())
        assert h.hexdigest() == "d97a5dd580b6cdbe46b54499418e93a56bb0bd9ba8a2c1442333a76b0a2de31c"

    def test_k1_single_iteration(self):
        ds = Dataset(make_blobs(30, 2, 2, seed=1))
        clustering, stats = run(ds, BkmConfig(k=1, seed=0))
        assert stats.iterations == 1 and clustering.converged
        assert set(clustering.assignments) == {0}

    @pytest.mark.parametrize("init", [Init.RANDOM_PARTITION, Init.PLUS_PLUS])
    def test_exact_against_lloyd_on_blobs(self, init):
        ds = Dataset(make_blobs(120, 3, 2, seed=9))
        cfg = BkmConfig(k=2, seed=4, init=init)
        fast, fast_stats = run(ds, cfg, record_history=True)
        naive, naive_stats = lloyd_run(ds, cfg, record_history=True)
        assert np.array_equal(fast.assignments, naive.assignments)
        assert len(fast.history) == len(naive.history)
        assert all(np.array_equal(a, b) for a, b in zip(fast.history, naive.history))
        assert fast_stats.points_moved_per_iter == naive_stats.points_moved_per_iter

    def test_seeded_rerun_is_identical(self):
        ds = Dataset(make_blobs(80, 2, 3, seed=3))
        cfg = BkmConfig(k=3, seed=11)
        first, s1 = run(ds, cfg)
        second, s2 = run(ds, cfg)
        assert np.array_equal(first.assignments, second.assignments)
        assert s1.distance_computations == s2.distance_computations
        assert s1.points_moved_per_iter == s2.points_moved_per_iter

    def test_instrumented_mode_sees_no_violations(self):
        ds = Dataset(make_blobs(150, 4, 5, seed=13))
        _, stats = run(ds, BkmConfig(k=5, seed=2), instrument=True)
        assert stats.stable_violations == 0
        assert stats.move_target_violations == 0
        assert stats.pruning_violations == 0

    def test_stats_serialize_as_json(self):
        ds = Dataset(make_blobs(150, 2, 5, seed=13))
        cfg = BkmConfig(k=5, seed=2)
        for _, stats in (run(ds, cfg, instrument=True), lloyd_run(ds, cfg)):
            counts = dataclasses.asdict(stats)
            assert json.loads(json.dumps(counts)) == counts

    def test_lloyd_counts_full_scan(self):
        ds = Dataset(make_blobs(60, 2, 3, seed=21))
        cfg = BkmConfig(k=3, seed=5)
        _, stats = lloyd_run(ds, cfg)
        assert stats.distance_computations == stats.iterations * 60 * 3

    def test_accelerated_never_costs_more(self):
        for seed in range(8):
            ds = Dataset(make_blobs(90, 3, 4, seed=seed + 50))
            cfg = BkmConfig(k=4, seed=seed, init=Init.RANDOM_PARTITION)
            _, fast_stats = run(ds, cfg)
            _, naive_stats = lloyd_run(ds, cfg)
            assert fast_stats.distance_computations <= naive_stats.distance_computations

    def test_empty_cluster_repair_stays_exact(self):
        rng = np.random.default_rng(42)
        x = np.concatenate([rng.normal(0, 0.2, (30, 2)), rng.normal(0.5, 0.2, (3, 2))])
        cfg = BkmConfig(k=8, seed=3, init=Init.RANDOM_PARTITION)
        fast, fast_stats = run(Dataset(x), cfg)
        naive, naive_stats = lloyd_run(Dataset(x), cfg)
        assert fast_stats.empty_cluster_repairs > 0
        assert fast_stats.empty_cluster_repairs == naive_stats.empty_cluster_repairs
        assert np.array_equal(fast.assignments, naive.assignments)

    def test_unconverged_flag_when_capped(self):
        ds = Dataset(make_blobs(200, 2, 6, seed=77))
        clustering, stats = run(ds, BkmConfig(k=6, seed=1, max_iter=1))
        assert stats.iterations == 1
        # a random partition of six blobs never happens to be Lloyd-stable
        assert not clustering.converged

    @pytest.mark.xfail(strict=True, reason="the ball bounds skip Lloyd's comparison at rounding ties")
    def test_exact_at_a_manhattan_rounding_tie(self):
        # point 9 is exactly 7/3 from two centers; Lloyd's rounding makes one distance 1 ulp
        # smaller, while run calls the point stable and never compares the two
        x = np.array([[0, 2, 1], [3, 2, 3], [0, 0, 0], [1, 2, 1], [3, 3, 3], [3, 1, 2], [2, 1, 0],
                      [1, 2, 0], [0, 2, 1], [1, 2, 2], [2, 3, 0], [2, 0, 0], [2, 3, 2], [1, 0, 2],
                      [2, 2, 1], [0, 2, 1], [3, 3, 0], [1, 1, 2], [2, 1, 0], [3, 0, 1], [2, 0, 1],
                      [1, 0, 0], [2, 0, 3], [2, 0, 1], [2, 2, 3], [3, 2, 3]], dtype=float)
        cfg = BkmConfig(k=3, seed=612, init=Init.RANDOM_PARTITION, distance=manhattan())
        fast, _ = run(Dataset(x), cfg, record_history=True)
        naive, _ = lloyd_run(Dataset(x), cfg, record_history=True)
        assert same_history(fast, naive)

    def test_duplicate_points_with_ties_stay_exact(self):
        x = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0]] * 6 + [[0.5, 0.0]] * 3)
        for seed in range(6):
            cfg = BkmConfig(k=3, seed=seed)
            fast, _ = run(Dataset(x), cfg, record_history=True)
            naive, _ = lloyd_run(Dataset(x), cfg, record_history=True)
            assert all(np.array_equal(a, b) for a, b in zip(fast.history, naive.history))

    def test_tie_report_lists_equidistant_points(self):
        x = np.array([[0.0], [2.0], [1.0]])
        clustering, _ = run(Dataset(x), BkmConfig(k=2, seed=0))
        tied_points = {p for p, _ in clustering.ties}
        assert 2 in tied_points or not clustering.ties  # midpoint ties when centers land at 0 and 2
        if clustering.ties:
            point, clusters = clustering.ties[0]
            assert len(clusters) > 1


class TestGroupedPass:
    """One pass over independent groups of rows gives each group what ``run`` gives it alone."""

    @pytest.mark.parametrize(
        "k, init, max_iter",
        # k=8: empty-cluster repairs in three groups; max_iter=3: one group stops unconverged
        [(1, Init.PLUS_PLUS, 200), (2, Init.PLUS_PLUS, 200), (3, Init.RANDOM_PARTITION, 200), (8, Init.RANDOM_PARTITION, 200),
         (5, Init.PLUS_PLUS, 200), (3, Init.RANDOM_PARTITION, 3)],
    )
    def test_each_group_as_alone(self, k, init, max_iter):
        rng = np.random.default_rng(k)
        sizes = [k, k + 1, 7 + k, 30, 120, 3 * k, 60]
        # odd groups are normal clouds, even ones small integer grids full of duplicate points
        parts = [rng.normal(0, 1, (m, 2)) if g % 2 else rng.integers(0, 4, (m, 2)).astype(float) for g, m in enumerate(sizes)]
        bounds = np.cumsum([0] + sizes).tolist()
        seeds = [11 * g + 1 for g in range(len(sizes))]
        cfg = BkmConfig(k=k, init=init, max_iter=max_iter)
        stats = RunStats()
        assign, centers, radii, converged = _cluster_groups(np.concatenate(parts), bounds, seeds, cfg, stats, instrument=True)
        alone = [run(Dataset(p), dataclasses.replace(cfg, seed=s)) for p, s in zip(parts, seeds)]
        for g, (c, _) in enumerate(alone):
            assert np.array_equal(assign[bounds[g] : bounds[g + 1]], c.assignments + g * k)
            assert centers[g * k : g * k + k].tobytes() == c.centers.tobytes()
            assert radii[g * k : g * k + k].tobytes() == c.radii.tobytes()
            assert converged[g] == c.converged
        per = [s for _, s in alone]
        for name in ("distance_computations", "prunings_fired", "empty_cluster_repairs", "neighbor_free_stable_clusters"):
            assert getattr(stats, name) == sum(getattr(s, name) for s in per)
        assert stats.iterations == max(s.iterations for s in per)
        moved = [sum(s.points_moved_per_iter[i] for s in per if i < s.iterations) for i in range(stats.iterations)]
        assert stats.points_moved_per_iter == moved
        assert stats.stable_violations == stats.move_target_violations == stats.pruning_violations == 0


class TestDistances:
    @pytest.mark.parametrize("factory", [squared_euclidean, forward_gap])
    def test_run_refuses_distances_without_metric_bounds(self, factory):
        ds = Dataset(make_blobs(30, 2, 2, seed=1))
        cfg = BkmConfig(k=2, seed=0, distance=factory())
        with pytest.raises(ConfigError):
            run(ds, cfg)
        naive, _ = lloyd_run(ds, cfg)  # the full scan needs no bounds
        assert naive.assignments.shape == (30,)

    # (iterations, distance_computations, prunings_fired, neighbor_free_stable_clusters)
    @pytest.mark.parametrize(
        "factory, counts",
        [
            (euclidean, (28, 163952, 87018, 0)),
            (manhattan, (33, 201225, 101902, 0)),
            (chebyshev, (39, 228919, 121782, 0)),
        ],
    )
    def test_exact_with_pinned_counts_at_large_k(self, factory, counts):
        ds = Dataset(make_blobs(3000, 2, 60, seed=1))
        cfg = BkmConfig(k=60, seed=3, init=Init.PLUS_PLUS, distance=factory())
        assert_exact_with_counts(ds, cfg, counts)

    def test_exact_with_pinned_counts_from_random_partition(self):
        # most points start unstable with many candidates: the annulus block needs chunks
        ds = Dataset(make_blobs(30000, 8, 30, seed=1))
        cfg = BkmConfig(k=30, seed=3, init=Init.RANDOM_PARTITION)
        assert_exact_with_counts(ds, cfg, (60, 6643029, 39082, 579))

    def test_no_quadratic_scalar_calls(self):
        ds = Dataset(make_blobs(3000, 2, 60, seed=1))
        for base in (euclidean(), manhattan()):
            log = []
            cfg = BkmConfig(k=60, seed=3, init=Init.PLUS_PLUS, distance=counting(base, log))
            _, stats = run(ds, cfg)
            kinds = [kind for kind, _ in log]
            assert "eval" not in kinds
            # one call per phase (own, shift, pairs, up to three annulus chunks) and per
            # repair, plus the final tie scan with one call per chunk of points
            assert kinds.count("rows") <= 6 * stats.iterations + stats.empty_cluster_repairs + 60

    def test_annulus_gathers_stay_within_n_rows(self):
        # from a random partition nearly every point is unstable with many candidates
        log = []
        ds = Dataset(make_blobs(1000, 2, 20, seed=1))
        cfg = BkmConfig(k=20, seed=3, init=Init.RANDOM_PARTITION, distance=counting(euclidean(), log))
        run(ds, cfg)
        # the final tie scan's calls close the log, n k pairs in all
        scan = list(itertools.accumulate(rows for _, rows in reversed(log))).index(ds.n * cfg.k) + 1
        assert max(rows for _, rows in log[:-scan]) <= 1000
        assert all(rows * ds.d <= _CHUNK_ENTRIES for _, rows in log[-scan:])

    @pytest.mark.parametrize("factory", [euclidean, manhattan])
    def test_eval_fallback_matches_row_kernel(self, factory):
        ds = Dataset(make_blobs(400, 2, 12, seed=4))
        cfg = BkmConfig(k=12, seed=1, init=Init.RANDOM_PARTITION, distance=factory())
        bare = dataclasses.replace(cfg, distance=dataclasses.replace(cfg.distance, rows=None))
        fast, stats = run(ds, cfg, record_history=True)
        slow, slow_stats = run(ds, bare, record_history=True)
        assert same_history(fast, slow)
        assert stats == slow_stats
        assert fast.ties == slow.ties and np.array_equal(fast.centers, slow.centers)

    def test_instrument_flags_a_mislabelled_distance(self):
        # squared Euclidean breaks the triangle inequality the bounds rely on
        fn = dataclasses.replace(squared_euclidean(), declared_kind=Kind.METRIC)
        ds = Dataset(make_blobs(40, 2, 4, seed=1))
        cfg = BkmConfig(k=4, seed=1, distance=fn)
        fast, stats = run(ds, cfg, instrument=True, record_history=True)
        naive, _ = lloyd_run(ds, cfg, record_history=True)
        assert not same_history(fast, naive)
        assert stats.stable_violations + stats.move_target_violations + stats.pruning_violations > 0
