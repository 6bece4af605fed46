import collections
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granule import granular_ball, metrics
from granule.ball_kmeans import BkmConfig, Dataset, Init, run
from granule.granular_ball import (
    BallSet,
    GbConfig,
    GbResult,
    GranularBall,
    LabeledDataset,
    SplitRefused,
    check_major_minor,
    classify,
    generate,
    heterogeneous_overlap,
    make_ball,
    purity,
    resolve_overlaps,
    split,
)
from granule.metrics import NAMED_DISTANCES, DistanceFn, chebyshev, euclidean, forward_gap, manhattan, row_distances


def ball_of(center, radius, members, label, purity_=1.0):
    return GranularBall(
        center=np.atleast_1d(np.asarray(center, dtype=float)),
        radius=radius,
        members=tuple(members),
        purity=purity_,
        majority_label=label,
    )


class TestLabeledDataset:
    @pytest.mark.parametrize("label", [0.5, 1.7, True, np.True_, "1", float("nan")])
    def test_non_integral_labels_refused(self, label):
        # int() would read 0.5, 1.7 and True as the classes 0, 1 and 1
        with pytest.raises(ValueError, match=f"label must be an integer, got {label!r}"):
            LabeledDataset.build([[0.0], [1.0]], [0, label])

    def test_integral_labels_become_ints(self):
        ds = LabeledDataset.build([[0.0], [1.0], [2.0], [3.0]], [np.int64(4), 2.0, None, 2**70])
        assert ds.labels == (4, 2, None, 2**70) and all(type(l) is int for l in ds.labels if l is not None)


class TestMakeBall:
    def test_singleton(self):
        ds = LabeledDataset.build([[2.0, 3.0]], [7])
        b = make_ball(ds, [0])
        assert np.allclose(b.center, [2.0, 3.0])
        assert b.radius == 0.0 and b.purity == 1.0 and b.majority_label == 7

    def test_two_points_same_label(self):
        ds = LabeledDataset.build([[0.0], [2.0]], [1, 1])
        b = make_ball(ds, [0, 1])
        assert np.allclose(b.center, [1.0])
        assert b.radius == 1.0 and b.purity == 1.0

    def test_majority_purity(self):
        ds = LabeledDataset.build([[float(i)] for i in range(6)], [0, 0, 0, 0, 1, 1])
        b = make_ball(ds, range(6))
        assert b.purity == pytest.approx(4 / 6)
        assert b.majority_label == 0

    def test_label_ties_go_to_the_smallest_label(self):
        # labels may be negative or beyond int64, and unlabeled members do not count
        for labels, want in (([3, -2, 3, -2, None], -2), ([2**70, 5, None, 2**70, 5], 5)):
            ds = LabeledDataset.build([[float(i)] for i in range(5)], labels)
            b = make_ball(ds, range(5))
            assert (b.majority_label, b.purity) == (want, 0.5)
            assert type(b.majority_label) is int and type(b.purity) is float

    @pytest.mark.parametrize("members", [[0.7, 1.2, 3.9], [True, False], np.array([True, False, True]), ["1"], [float("nan")]])
    def test_non_integral_members_refused(self, members):
        # int() would truncate 0.7 to 0, and a boolean mask would read as the indices 0 and 1
        ds = LabeledDataset.build([[float(i)] for i in range(5)], [0] * 5)
        with pytest.raises(ValueError, match="member index must be an integer"):
            make_ball(ds, members)

    def test_integral_members_of_any_type_accepted(self):
        ds = LabeledDataset.build([[float(i)] for i in range(5)], [0] * 5)
        assert make_ball(ds, [np.int64(3), 1.0, np.uint8(2)]).members == (1, 2, 3)

    def test_empty_member_set_rejected(self):
        ds = LabeledDataset.build([[0.0]], [0])
        with pytest.raises(ValueError):
            make_ball(ds, [])

    @pytest.mark.parametrize("members, bad", [([-1, 0], -1), ([0, 0], 0), ([1, 2, 3], 3)])
    def test_negative_repeated_or_out_of_range_index_rejected(self, members, bad):
        ds = LabeledDataset.build([[0.0], [1.0], [2.0]], [0, 1, 0])
        with pytest.raises(ValueError, match=f"member index {bad} "):
            make_ball(ds, members)

    def test_mean_radius_bounded_by_max_radius(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 2, (12, 3))
        ds = LabeledDataset.build(pts, [0] * 12)
        b = make_ball(ds, range(12))
        max_radius = np.sqrt(((pts - b.center) ** 2).sum(axis=1)).max()
        assert b.radius <= max_radius + 1e-12

    @pytest.mark.parametrize("factory", [euclidean, manhattan, chebyshev])
    def test_radius_matches_per_member_eval(self, factory):
        # the row kernel, and the eval fallback for a distance without one
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 3, (40, 4))
        ds = LabeledDataset.build(pts, [0] * 40)
        fn = factory()
        for dist in (fn, dataclasses.replace(fn, rows=None)):
            b = make_ball(ds, range(40), dist)
            assert b.radius == np.array([fn.eval(p, b.center) for p in pts]).mean()


def reference_ball(ds, members, fn):
    """Reference ball built apart from the library's builder: ``mean(axis=0)`` center, mean row-kernel
    distance radius, and ``np.unique`` over the labeled members, ties to the smallest label."""
    idx = np.array(sorted(members))
    pts = ds.points.points[idx]
    center = pts.mean(axis=0)
    labels = [ds.labels[i] for i in idx if ds.labels[i] is not None]
    pur = maj = None
    if labels:
        found, counts = np.unique(np.array(labels, dtype=object), return_counts=True)
        top = int(np.argmax(counts))  # the first maximal count: the smallest label
        pur, maj = int(counts[top]) / len(labels), int(found[top])
    return GranularBall(center, float(row_distances(fn, pts, center).mean()), tuple(idx.tolist()), pur, maj)


def tied_labels(ball, ds):
    counts = collections.Counter(ds.labels[i] for i in ball.members if ds.labels[i] is not None)
    return list(counts.values()).count(max(counts.values(), default=0)) > 1


# every named distance, and one without a row kernel
REFERENCE_DISTANCES = [f() for f in NAMED_DISTANCES.values()] + [
    DistanceFn(name="cube-root", eval=lambda a, b: float(np.sum(np.abs(a - b) ** 3) ** (1 / 3)))
]


class TestReferenceBall:
    """``make_ball`` and every ball of ``generate`` equal a ball built apart from the library's builder."""

    @staticmethod
    def dataset(d, n, seed):
        # duplicate points, unlabeled points, and labels from a small set, so that ties are common
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 2.0, (n, d))
        x[rng.integers(0, n, n // 5)] = x[rng.integers(0, n, n // 5)]
        labels = [None if v == 3 else int(v) for v in rng.integers(0, 4, n)]
        labels[0] = 0
        return LabeledDataset.build(x, labels)

    @pytest.mark.parametrize("fn", REFERENCE_DISTANCES, ids=lambda fn: fn.name)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_make_ball(self, d, fn):
        ds = self.dataset(d, 60, seed=d)
        rng = np.random.default_rng(100 + d)
        by_label = collections.defaultdict(list)
        for i, l in enumerate(ds.labels):
            by_label[l].append(i)
        tie = by_label[2][:2] + by_label[1][:2] + by_label[None][:1]  # 2 against 1: label 1 wins
        member_sets = [rng.choice(ds.n, size, replace=False) for size in (1, 2, 3, 4, 7, 16, 33, 60)]
        for members in member_sets + [tie, by_label[None][:3]]:
            assert make_ball(ds, members, fn) == reference_ball(ds, members, fn)
        assert tied_labels(make_ball(ds, tie), ds) and make_ball(ds, tie).majority_label == 1
        assert make_ball(ds, by_label[None][:3]).majority_label is None

    @pytest.mark.parametrize("d", range(1, 9))
    def test_generate(self, d):
        ds = self.dataset(d, 300, seed=20 + d)
        for cfg in (GbConfig(purity_threshold=1.0, split_k=3, seed=d), GbConfig(0.8, min_points=4, overlap_resolution=True)):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "overlap resolution over balls without a majority label")
                balls = generate(ds, cfg).balls
            assert all(b == reference_ball(ds, b.members, euclidean()) for b in balls)
        assert any(tied_labels(b, ds) for b in balls) and any(b.majority_label is None for b in balls)


class TestPurity:
    def test_uniform_labels(self):
        ds = LabeledDataset.build([[0.0], [1.0]], [3, 3])
        assert purity(make_ball(ds, [0, 1]), ds) == 1.0

    def test_three_to_one(self):
        ds = LabeledDataset.build([[float(i)] for i in range(4)], [0, 0, 0, 1])
        assert purity(make_ball(ds, range(4)), ds) == 0.75

    def test_unlabeled_members_do_not_count(self):
        ds = LabeledDataset.build([[0.0], [1.0], [2.0]], [None, 1, None])
        b = make_ball(ds, range(3))
        assert b.purity == 1.0 and b.majority_label == 1

    def test_no_labels_gives_none(self):
        ds = LabeledDataset.build([[0.0], [1.0]], [None, None])
        assert purity(make_ball(ds, [0, 1]), ds) is None


class TestSplit:
    def test_refused_below_k(self):
        ds = LabeledDataset.build([[0.0]], [0])
        with pytest.raises(SplitRefused):
            split(ds, make_ball(ds, [0]), 2)

    def test_separates_coincident_groups(self):
        pts = [[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5
        ds = LabeledDataset.build(pts, [0] * 5 + [1] * 5)
        parent = make_ball(ds, range(10))
        children = split(ds, parent, 2, seed=1)
        assert len(children) == 2
        assert check_major_minor(parent, children)
        assert all(c.purity == 1.0 for c in children)

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_children_partition_parent(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 3, (14, 2))
        ds = LabeledDataset.build(pts, rng.integers(0, 2, 14).tolist())
        parent = make_ball(ds, range(14))
        children = split(ds, parent, 3, seed=seed)
        assert check_major_minor(parent, children)


class TestCheckMajorMinor:
    def test_exact_partition(self):
        major = ball_of([0.0], 1.0, (1, 2, 3), 0)
        minors = [ball_of([0.0], 0.5, (1,), 0), ball_of([0.0], 0.5, (2, 3), 0)]
        assert check_major_minor(major, minors)

    def test_pairwise_overlap_fails(self):
        major = ball_of([0.0], 1.0, (1, 2, 3), 0)
        minors = [ball_of([0.0], 0.5, (1, 2), 0), ball_of([0.0], 0.5, (2, 3), 0)]
        assert not check_major_minor(major, minors)

    def test_union_deficit_fails(self):
        major = ball_of([0.0], 1.0, (1, 2, 3), 0)
        minors = [ball_of([0.0], 0.5, (1,), 0), ball_of([0.0], 0.5, (2,), 0)]
        assert not check_major_minor(major, minors)


class TestGenerate:
    def test_single_class_one_ball(self):
        ds = LabeledDataset.build([[float(i)] for i in range(10)], [1] * 10)
        result = generate(ds, GbConfig(purity_threshold=0.9))
        assert len(result.balls) == 1
        assert result.balls[0].purity == 1.0
        assert result.stop_reasons == ["purity"]

    def test_two_blobs_split_once(self, labeled_blobs):
        x, labels = labeled_blobs()
        ds = LabeledDataset.build(x, labels)
        result = generate(ds, GbConfig(purity_threshold=0.95, seed=11))
        assert len(result.balls) == 2
        assert len(result.split_audit) == 1
        assert all(ok for *_, ok in result.split_audit)
        assert sorted(i for b in result.balls for i in b.members) == list(range(ds.n))

    def test_conflicting_duplicates_bottom_out(self):
        # the duplicated pair carries both labels, so it can never become pure
        pts = [[0.0], [0.0], [5.0], [5.0]]
        ds = LabeledDataset.build(pts, [0, 1, 1, 1])
        result = generate(ds, GbConfig(purity_threshold=1.0, min_points=2, seed=0))
        assert all(r in {"purity", "min_points", "split_refused"} for r in result.stop_reasons)
        impure = [b for b in result.balls if b.purity is not None and b.purity < 1.0]
        assert impure and all(b.size <= 2 for b in impure)
        assert sorted(i for b in result.balls for i in b.members) == [0, 1, 2, 3]

    def test_depth_cap_reported(self, labeled_blobs):
        x, labels = labeled_blobs(n_per=30)
        # force impurity everywhere by shuffling labels, then cap the depth
        rng = np.random.default_rng(0)
        labels = rng.permutation(labels).tolist()
        ds = LabeledDataset.build(x, labels)
        result = generate(ds, GbConfig(purity_threshold=1.0, max_depth=2, seed=1))
        assert "max_depth" in result.stop_reasons

    def test_deterministic_given_seed(self, labeled_blobs):
        x, labels = labeled_blobs(n_per=40)
        ds = LabeledDataset.build(x, labels)
        cfg = GbConfig(purity_threshold=0.9, seed=21)
        first = generate(ds, cfg)
        second = generate(ds, cfg)
        assert [b.members for b in first.balls] == [b.members for b in second.balls]

    def test_needs_at_least_one_label(self):
        ds = LabeledDataset.build([[0.0], [1.0]], [None, None])
        with pytest.raises(ValueError):
            generate(ds, GbConfig(purity_threshold=0.9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GbConfig(purity_threshold=0.0)
        with pytest.raises(ValueError):
            GbConfig(purity_threshold=0.5, split_k=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_points", 1.5), ("min_points", True), ("split_k", 2.5), ("split_k", "3"), ("max_depth", 4.2),
            ("max_depth", np.True_), ("seed", 0.5), ("seed", True),
        ],
    )
    def test_non_integral_config_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            GbConfig(0.9, **{field: value})

    def test_negative_seed_and_bool_purity_refused(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            GbConfig(0.9, seed=-1)
        with pytest.raises(ValueError, match=r"purity_threshold must be in \(0, 1\], got True"):
            GbConfig(True)  # was accepted as 1.0

    def test_integral_config_values_become_ints(self):
        cfg = GbConfig(0.9, min_points=np.int64(2), split_k=3.0, max_depth=np.uint8(5), seed=4.0)
        assert [type(v) for v in (cfg.min_points, cfg.split_k, cfg.max_depth, cfg.seed)] == [int] * 4
        assert (cfg.min_points, cfg.split_k, cfg.max_depth, cfg.seed) == (2, 3, 5, 4)


class TestOverlap:
    def test_same_label_never_heterogeneous(self):
        b1 = ball_of([0.0], 2.0, (0,), 1)
        b2 = ball_of([1.0], 2.0, (1,), 1)
        assert not heterogeneous_overlap(b1, b2)

    def test_disjoint_balls_not_overlapping(self):
        b1 = ball_of([0.0], 2.0, (0,), 0)
        b2 = ball_of([5.0], 2.0, (1,), 1)
        assert not heterogeneous_overlap(b1, b2)

    def test_close_different_labels_overlap(self):
        b1 = ball_of([0.0], 2.0, (0,), 0)
        b2 = ball_of([3.0], 2.0, (1,), 1)
        assert heterogeneous_overlap(b1, b2)

    def test_asymmetric_distance_measured_from_the_first_ball(self):
        # forward gap from 0 to 3 is 0, from 3 to 0 is 3: only the first order overlaps
        b1, b2 = ball_of([0.0], 1.0, (0,), 0), ball_of([3.0], 1.0, (1,), 1)
        assert heterogeneous_overlap(b1, b2, forward_gap())
        assert not heterogeneous_overlap(b2, b1, forward_gap())

    def test_missing_label_warns_and_returns_false(self):
        b1 = ball_of([0.0], 2.0, (0,), None, purity_=None)
        b2 = ball_of([1.0], 2.0, (1,), 1)
        with pytest.warns(UserWarning):
            assert not heterogeneous_overlap(b1, b2)


class TestResolveOverlaps:
    def test_no_overlaps_is_identity(self, labeled_blobs):
        x, labels = labeled_blobs()
        ds = LabeledDataset.build(x, labels)
        result = generate(ds, GbConfig(purity_threshold=0.95, seed=11))
        resolved = resolve_overlaps(ds, result, GbConfig(purity_threshold=0.95, seed=11))
        assert [b.members for b in resolved.balls] == [b.members for b in result.balls]
        assert resolved.unresolved_overlaps == []

    def test_separable_overlap_removed_by_splitting(self):
        rng = np.random.default_rng(2)
        left = rng.normal(0.0, 1.0, (20, 1))
        right = rng.normal(0.8, 1.0, (20, 1))
        pts = np.concatenate([left, right])
        labels = [0] * 20 + [1] * 20
        ds = LabeledDataset.build(pts, labels)
        # one deliberately coarse ball per class, geometrically overlapping
        coarse = GbResult(
            balls=[make_ball(ds, range(20)), make_ball(ds, range(20, 40))],
            stop_reasons=["purity", "purity"],
            depths=[0, 0],
        )
        assert heterogeneous_overlap(coarse.balls[0], coarse.balls[1])
        resolved = resolve_overlaps(ds, coarse, GbConfig(purity_threshold=0.9, seed=3))
        assert len(resolved.balls) > 2
        pairs = [
            (a, b)
            for i, a in enumerate(resolved.balls)
            for b in resolved.balls[i + 1 :]
        ]
        assert not any(heterogeneous_overlap(a, b) for a, b in pairs)
        assert resolved.unresolved_overlaps == []

    def test_stuck_offenders_reported(self):
        ds = LabeledDataset.build([[0.0], [0.5], [0.2], [0.7]], [0, 0, 1, 1])
        coarse = GbResult(
            balls=[make_ball(ds, [0, 1]), make_ball(ds, [2, 3])],
            stop_reasons=["min_points", "min_points"],
            depths=[0, 0],
        )
        cfg = GbConfig(purity_threshold=1.0, min_points=5, seed=0)
        resolved = resolve_overlaps(ds, coarse, cfg)
        assert resolved.unresolved_overlaps

    @pytest.mark.parametrize(
        "n, seed, min_points, split_k",
        [(300, 4, 1, 2), (300, 4, 4, 2), (300, 4, 10, 2), (300, 4, 4, 3), (1000, 6, 1, 2), (1000, 6, 4, 2), (1000, 6, 10, 2)],
    )
    def test_matches_pairwise_rescan(self, n, seed, min_points, split_k):
        x, y = noisy_classes(n, seed=seed)
        ds = LabeledDataset.build(x, y.tolist())
        cfg = GbConfig(purity_threshold=0.95, min_points=min_points, split_k=split_k, seed=5)
        base = generate(ds, cfg)
        assert base == per_ball_generate(ds, cfg)
        resolved = resolve_overlaps(ds, base, cfg)
        assert len(resolved.split_audit) > len(base.split_audit)
        assert bool(resolved.unresolved_overlaps) == (min_points > 1)  # stuck pairs are covered
        assert_same_result(resolved, pairwise_resolve_overlaps(ds, base, cfg))

    def test_unlabeled_balls_warn_and_never_offend(self):
        x, y = noisy_classes(300, seed=4)
        # an unlabeled cloud amid the classes ends up in balls without a majority label
        cloud = np.random.default_rng(4).normal(x.mean(axis=0), 1.0, (40, x.shape[1]))
        ds = LabeledDataset.build(np.concatenate([x, cloud]), y.tolist() + [None] * 40)
        cfg = GbConfig(purity_threshold=0.95, min_points=4, seed=5)
        base = generate(ds, cfg)
        assert any(b.majority_label is None for b in base.balls)
        with pytest.warns(UserWarning):
            resolved = resolve_overlaps(ds, base, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_same_result(resolved, pairwise_resolve_overlaps(ds, base, cfg))

    def test_unlabeled_cloud_matches_table_oracle(self):
        x, y = noisy_classes(2000, seed=4)
        cloud = np.random.default_rng(4).normal(x.mean(axis=0), 1.0, (200, x.shape[1]))
        ds = LabeledDataset.build(np.concatenate([x, cloud]), y.tolist() + [None] * 200)
        cfg = GbConfig(purity_threshold=0.95, min_points=4)
        base = generate(ds, cfg)
        assert any(b.majority_label is None for b in base.balls)
        assert base == per_ball_generate(ds, cfg)
        with pytest.warns(UserWarning):
            resolved = resolve_overlaps(ds, base, cfg)
        assert len(resolved.split_audit) > len(base.split_audit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_same_result(resolved, table_resolve_overlaps(ds, base, cfg))

    @pytest.mark.parametrize(
        "n, seed, min_points, split_k, max_depth",
        [(n, 1, m, k, 32) for n in (2000, 4000) for m in (1, 4, 10) for k in (2, 3)]
        + [(2000, 2, 1, 2, 7), (2000, 2, 4, 3, 3), (8000, 1, 4, 2, 32)],  # depth caps; 789 -> 884 balls
    )
    def test_matches_table_oracle(self, n, seed, min_points, split_k, max_depth):
        x, y = noisy_classes(n, seed=seed)
        ds = LabeledDataset.build(x, y.tolist())
        cfg = GbConfig(purity_threshold=0.95, min_points=min_points, split_k=split_k, max_depth=max_depth)
        base = generate(ds, cfg)
        assert base == per_ball_generate(ds, cfg)
        resolved = resolve_overlaps(ds, base, cfg)
        assert len(resolved.split_audit) > len(base.split_audit)
        assert_same_result(resolved, table_resolve_overlaps(ds, base, cfg))

    def test_no_eval_and_linear_rows_per_split(self, monkeypatch):
        x, y = noisy_classes(300, seed=4)
        ds = LabeledDataset.build(x, y.tolist())
        cfg = GbConfig(purity_threshold=0.95, min_points=4, seed=5)
        base = generate(ds, cfg)
        counts = {"eval": 0, "rows": 0}
        real = euclidean()

        def counted_eval(a, b):
            counts["eval"] += 1
            return real.eval(a, b)

        def counted_rows(m, v):
            counts["rows"] += len(m)
            return real.rows(m, v)

        counting = DistanceFn("counting", counted_eval, real.declared_kind, rows=counted_rows)
        # split children are measured with the clustering's own distance, so only the pair table is counted
        monkeypatch.setattr(granular_ball, "euclidean", lambda: counting)
        resolved = resolve_overlaps(ds, base, cfg)
        splits = len(resolved.split_audit) - len(base.split_audit)
        b0, b_max = len(base.balls), len(resolved.balls)
        assert splits > 0
        assert counts["eval"] == 0
        assert counts["rows"] <= b0 * b0 + cfg.split_k * splits * b_max


def test_generate_and_classify_write_nothing_to_stdout(capfd):
    x, y = noisy_classes(400, seed=4)
    ds = LabeledDataset.build(x[:300], y[:300].tolist())
    for resolution in (False, True):
        balls = generate(ds, GbConfig(purity_threshold=0.95, min_points=4, overlap_resolution=resolution)).balls
        for p in x[300:]:
            classify(balls, p)
    assert capfd.readouterr().out == ""


class TestClassify:
    def test_center_recovers_label(self, labeled_blobs):
        x, labels = labeled_blobs()
        ds = LabeledDataset.build(x, labels)
        result = generate(ds, GbConfig(purity_threshold=0.95, seed=11))
        for b in result.balls:
            assert classify(result.balls, b.center) == b.majority_label

    def test_equidistant_prefers_larger_radius(self):
        balls = [
            ball_of([-2.0], 1.0, (0,), 0),
            ball_of([2.0], 0.5, (1,), 1),
        ]
        assert classify(balls, [0.0]) == 0  # score 1.0 beats score 1.5

    def test_held_out_accuracy(self, labeled_blobs):
        x, labels = labeled_blobs(n_per=100, seed=5)
        ds = LabeledDataset.build(x, labels)
        result = generate(ds, GbConfig(purity_threshold=0.95, seed=11))
        xt, yt = two_blob_pair_heldout()
        hits = sum(classify(result.balls, p) == y for p, y in zip(xt, yt))
        assert hits / len(yt) >= 0.95

    def test_no_labeled_balls_rejected(self):
        with pytest.raises(ValueError):
            classify([ball_of([0.0], 1.0, (0,), None, purity_=None)], [0.0])

    def test_score_ties_go_to_smaller_radius_then_lower_id(self):
        wide, narrow = ball_of([3.0], 2.0, (0,), 1), ball_of([-2.0], 1.0, (1,), 0)
        assert classify([wide, narrow], [0.0]) == 0  # both score 1.0
        assert classify([narrow, ball_of([-2.0], 1.0, (2,), 2)], [0.0]) == 0

    def test_asymmetric_distance_measured_from_the_point(self):
        # forward gap from x=0: 0 to the ball at 2, 1 to the ball at -1; the reverse order flips it
        balls = [ball_of([-1.0], 0.0, (0,), 0), ball_of([2.0], 0.0, (1,), 1)]
        assert classify(balls, [0.0], forward_gap()) == 1

    @pytest.mark.parametrize("factory", [euclidean, manhattan, forward_gap])
    def test_matches_per_ball_minimum(self, factory):
        x, y = noisy_classes(400, seed=3)
        ds = LabeledDataset.build(x[:300], y[:300].tolist())
        balls = generate(ds, GbConfig(purity_threshold=0.95, min_points=4, seed=5)).balls
        fn = factory()
        for p in x[300:]:
            assert classify(balls, p, fn) == per_ball_minimum(balls, p, fn)
        assert classify(balls, x[300:], fn).tolist() == [per_ball_minimum(balls, p, fn) for p in x[300:]]

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([euclidean, manhattan, forward_gap]))
    def test_batch_matches_per_point_and_minimum(self, data, factory):
        # lattice centers and points with radii in halves: exact score ties are common
        d = data.draw(st.integers(1, 3))
        coords = st.lists(st.integers(-1, 3).map(float), min_size=d, max_size=d)
        label = st.sampled_from([None, 0, 1, 2])
        radius = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        spec = data.draw(st.lists(st.tuples(coords, radius, label), min_size=1, max_size=8))
        if all(lab is None for *_, lab in spec):
            i = data.draw(st.integers(0, len(spec) - 1))
            spec[i] = (*spec[i][:2], 0)
        balls = [ball_of(c, r, (i,), lab, None if lab is None else 1.0) for i, (c, r, lab) in enumerate(spec)]
        pts = np.array(data.draw(st.lists(coords, min_size=1, max_size=12)))
        fn = factory()
        want = [per_ball_minimum(balls, p, fn) for p in pts]
        assert [classify(balls, p, fn) for p in pts] == want
        assert classify(balls, pts, fn).tolist() == want
        assert classify(BallSet(balls), pts, fn).tolist() == want

    def test_set_and_plain_list_agree(self):
        x, y = noisy_classes(500, seed=3)
        ds = LabeledDataset.build(x[:300], y[:300].tolist())
        balls = generate(ds, GbConfig(purity_threshold=0.95, min_points=4, seed=5)).balls
        assert isinstance(balls, BallSet)
        got = classify(balls, x[300:])
        assert got.dtype.kind == "i" and got.shape == (200,)
        assert got.tolist() == classify(list(balls), x[300:]).tolist()
        assert [classify(balls, p) for p in x[300:350]] == [classify(list(balls), p) for p in x[300:350]]

    def test_batch_goes_in_bounded_row_chunks(self, monkeypatch):
        x, y = noisy_classes(500, seed=3)
        ds = LabeledDataset.build(x[:300], y[:300].tolist())
        balls = generate(ds, GbConfig(purity_threshold=0.95, min_points=4, seed=5)).balls
        real = euclidean()
        sizes = []

        def recorded_rows(m, v):
            sizes.append(len(m))
            return real.rows(m, v)

        # a chunk of 8 points: the pairwise kernel budgets eight arrays of its operands' size per chunk
        monkeypatch.setattr(metrics, "_CHUNK_ENTRIES", 64 * balls.centers.size)
        got = classify(balls, x[300:], dataclasses.replace(real, rows=recorded_rows))
        assert sizes == [8 * len(balls)] * 25
        assert got.tolist() == [per_ball_minimum(balls, p, real) for p in x[300:]]

    @pytest.mark.parametrize(
        "spec, want",
        [
            ([(np.nan, 1.0, 0), (3.0, 1.0, 1)], 1),  # a NaN score ranks after every other
            ([(0.0, 1.0, None), (np.nan, 2.0, 5), (np.nan, 1.0, 7), (np.nan, 1.0, 8)], 7),  # all NaN: radius, id
            ([(np.nan, 1.0, 0), (np.inf, 1.0, 1), (np.nan, 0.5, 2)], 1),  # an infinite score beats NaN
        ],
    )
    def test_nan_scores_rank_last(self, spec, want):
        balls = [ball_of([c], r, (i,), lab) for i, (c, r, lab) in enumerate(spec)]
        assert classify(balls, [0.0]) == want
        assert classify(balls, [[0.0], [0.0]]).tolist() == [want] * 2

    def test_zero_dimensional_points(self):
        # no coordinates: every distance is 0, so the larger radius gives the least score
        balls = [ball_of(np.empty(0), 1.0, (0,), 3), ball_of(np.empty(0), 2.0, (1,), 4)]
        assert classify(balls, np.empty(0)) == 4
        assert classify(balls, np.empty((2, 0))).tolist() == [4, 4]

    def test_batch_of_no_points_is_empty(self):
        balls = [ball_of([0.0, 0.0], 1.0, (0,), 3)]
        assert classify(balls, np.empty((0, 2))).shape == (0,)
        assert classify(balls, [[0.0, 0.0]]).tolist() == [3]

    def test_scalar_point_when_one_dimensional(self):
        balls = [ball_of([-2.0], 1.0, (0,), 0), ball_of([2.0], 0.5, (1,), 1)]
        assert classify(balls, 1.9) == classify(balls, [1.9]) == 1
        assert isinstance(classify(balls, 1.9), int)

    @pytest.mark.parametrize("point", [[1.0], 3.0, [1.0, 2.0, 3.0], [[1.0], [2.0]]])
    def test_wrong_dimension_refused(self, point):
        balls = [ball_of([0.0, 0.0], 1.0, (0,), 0), ball_of([3.0, 3.0], 1.0, (1,), 1)]
        with pytest.raises(ValueError, match="dimension 2"):
            classify(balls, point)

    @pytest.mark.parametrize("point", [[np.nan, np.nan], [np.inf, 0.0], [[0.0, 0.0], [0.0, -np.inf]]])
    def test_non_finite_point_refused(self, point):
        balls = [ball_of([0.0, 0.0], 1.0, (0,), 0), ball_of([3.0, 3.0], 1.0, (1,), 1)]
        with pytest.raises(ValueError, match="finite"):
            classify(balls, point)

    def test_more_than_two_array_dimensions_refused(self):
        balls = [ball_of([0.0, 0.0], 1.0, (0,), 0)]
        with pytest.raises(ValueError, match="dimension"):
            classify(balls, np.zeros((2, 3, 2)))


class TestBallSet:
    @pytest.fixture(scope="class")
    def result(self):
        x, y = noisy_classes(300, seed=4)
        ds = LabeledDataset.build(x, y.tolist())
        return generate(ds, GbConfig(purity_threshold=0.95, min_points=4, seed=5, overlap_resolution=True))

    def test_arrays_follow_the_balls(self, result):
        balls = result.balls
        assert isinstance(balls, BallSet) and len(balls) > 10
        assert balls.centers.shape == (len(balls), 4)
        assert balls.radii.tolist() == [b.radius for b in balls]
        assert balls.labels.tolist() == [b.majority_label for b in balls]
        assert balls.labeled.tolist() == [b.majority_label is not None for b in balls]
        assert balls.first.tolist() == [b.members[0] for b in balls]

    def test_arrays_and_center_rows_are_read_only(self, result):
        balls = result.balls
        for a in (balls.centers, balls.radii, balls.labels, balls.labeled, balls.first):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[1]
        for i, b in enumerate(balls):
            assert not b.center.flags.writeable
            assert np.shares_memory(b.center, balls.centers) and b.center.tobytes() == balls.centers[i].tobytes()
        with pytest.raises(ValueError):
            balls[0].center[0] = 1.0

    def test_slices_are_plain_lists(self, result):
        tail = result.balls[1:]
        assert type(tail) is list and len(tail) == len(result.balls) - 1
        assert [b.members for b in [result.balls[0]] + tail] == [b.members for b in result.balls]

    def test_a_plain_list_result_is_packed(self, result):
        shrunk = dataclasses.replace(result.balls[0], members=result.balls[0].members[1:])
        replaced = dataclasses.replace(result, balls=[shrunk] + result.balls[1:])
        assert isinstance(replaced.balls, BallSet)
        assert replaced.balls.first[0] == shrunk.members[0]
        points = result.balls.centers
        assert classify(replaced.balls, points).tolist() == classify(result.balls, points).tolist()


class TestEquality:
    def test_identical_results_compare_equal(self):
        ds = LabeledDataset.build([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]], [0, 1, 1, 1])
        cfg = GbConfig(purity_threshold=1.0)
        first, second = generate(ds, cfg), generate(ds, cfg)
        assert len(first.balls) > 1 and first.balls is not second.balls
        assert first == second
        assert first.balls == second.balls and first.balls[0] == second.balls[0]

    def test_balls_differ_in_any_compared_field(self):
        ball = ball_of([0.0, 1.0], 1.0, (0, 1), 0)
        assert ball == ball_of([0.0, 1.0], 1.0, (0, 1), 0)
        others = [
            ball_of([0.0, 1.5], 1.0, (0, 1), 0),
            ball_of([-0.0, 1.0], 1.0, (0, 1), 0),  # equal coordinates, other bytes
            ball_of([0.0, 1.0], 2.0, (0, 1), 0),
            ball_of([0.0, 1.0], 1.0, (0, 2), 0),
            ball_of([0.0, 1.0], 1.0, (0, 1), 0, purity_=0.5),
            ball_of([0.0, 1.0], 1.0, (0, 1), 1),
        ]
        assert all(ball != other for other in others)
        assert ball != (0, 1)

    def test_ball_sets_compare_element_by_element(self):
        a, b = ball_of([0.0], 1.0, (0,), 0), ball_of([3.0], 1.0, (1,), 1)
        assert BallSet([a, b]) == BallSet([ball_of([0.0], 1.0, (0,), 0), b])
        assert BallSet([a, b]) != BallSet([b, a])
        assert BallSet([a, b]) != BallSet([a])
        res = GbResult(balls=[a, b], stop_reasons=["purity"] * 2, depths=[1, 1])
        assert res == dataclasses.replace(res, balls=[a, b])
        assert res != dataclasses.replace(res, balls=[a, dataclasses.replace(b, radius=2.0)])
        assert res != dataclasses.replace(res, depths=[1, 2])


class TestFrontierPass:
    """``generate`` splits a whole depth in one pass and matches the per-ball worklist."""

    @pytest.mark.parametrize(
        "n, seed, cfg",
        [
            (600, 2, GbConfig(purity_threshold=0.95, split_k=3, seed=3)),
            (600, 2, GbConfig(purity_threshold=0.95, min_points=2, split_k=4, seed=4)),
            (600, 3, GbConfig(purity_threshold=1.0, max_depth=1)),
            (600, 3, GbConfig(purity_threshold=1.0, max_depth=4, split_k=3, seed=9)),
            (1000, 5, GbConfig(purity_threshold=0.9, min_points=4, seed=1, overlap_resolution=True)),
        ],
    )
    def test_matches_per_ball_worklist(self, n, seed, cfg):
        x, y = noisy_classes(n, seed=seed, noise=0.2)
        ds = LabeledDataset.build(x, y.tolist())
        got = generate(ds, cfg)
        assert got.split_audit and ("max_depth" in got.stop_reasons) == (cfg.max_depth < 32)
        assert got == per_ball_generate(ds, cfg)

    def test_conflicting_duplicates_and_unlabeled_points(self):
        # impure balls of fewer than split_k members stop as split_refused; every fifth point is unlabeled
        x, y = noisy_classes(400, seed=6, noise=0.2)
        x = np.concatenate([x, np.repeat(x[:1], 5, axis=0)])
        labels = [None if i % 5 == 0 else v for i, v in enumerate(y.tolist())] + [0, 1, 2, 0, 1]
        ds = LabeledDataset.build(x, labels)
        for split_k in (3, 4):
            cfg = GbConfig(purity_threshold=1.0, split_k=split_k, seed=2)
            got = generate(ds, cfg)
            assert "split_refused" in got.stop_reasons
            assert got == per_ball_generate(ds, cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 40),
        st.integers(1, 3),
        st.sampled_from([0.6, 0.9, 1.0]),
        st.integers(1, 4),
        st.integers(2, 4),
        st.integers(1, 6),
    )
    def test_matches_per_ball_worklist_on_small_sets(self, seed, n, d, threshold, min_points, split_k, max_depth):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, (n, d)).astype(float)  # coarse grid: duplicate points are common
        labels = [None if v == 3 else int(v) for v in rng.integers(0, 4, n)]
        labels[0] = 0
        ds = LabeledDataset.build(x, labels)
        cfg = GbConfig(threshold, min_points=min_points, split_k=split_k, max_depth=max_depth, seed=seed)
        assert generate(ds, cfg) == per_ball_generate(ds, cfg)


def per_ball_generate(ds, cfg):
    """Reference: the per-ball worklist of ``generate`` in breadth-first order, one ``run`` per
    split ball and children by ``make_ball``, then overlap resolution when the config asks for it."""
    work = collections.deque([(make_ball(ds, range(ds.n)), 0)])
    final, audit = [], []
    while work:
        ball, depth = work.popleft()
        reason = granular_ball._stop_reason(ball, depth, cfg)
        if reason is None and ball.size < cfg.split_k:
            reason = "split_refused"
        if reason is not None:
            final.append((ball, reason, depth))
            continue
        seed = granular_ball._child_seed(cfg.seed, depth, ball.members[0])
        clustering, _ = run(Dataset(ds.points.points[list(ball.members)]), BkmConfig(k=cfg.split_k, seed=seed, init=Init.PLUS_PLUS))
        members = np.asarray(ball.members)
        children = [make_ball(ds, members[clustering.assignments == c]) for c in range(cfg.split_k)]
        children.sort(key=lambda b: b.members[0])
        audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
        work.extend((child, depth + 1) for child in children)
    final.sort(key=lambda e: e[0].members[0])
    result = GbResult(
        balls=[b for b, _, _ in final],
        stop_reasons=[r for _, r, _ in final],
        depths=[d for _, _, d in final],
        split_audit=audit,
    )
    return resolve_overlaps(ds, result, cfg) if cfg.overlap_resolution else result


def per_ball_minimum(balls, p, fn):
    """Reference label: the labeled ball of least (score, radius, id) by one ``eval`` per ball."""
    best = min(
        (i for i, b in enumerate(balls) if b.majority_label is not None),
        key=lambda i: (fn.eval(p, balls[i].center) - balls[i].radius, balls[i].radius, i),
    )
    return balls[best].majority_label


def two_blob_pair_heldout(n_per=50, gap=8.0, seed=77):
    rng = np.random.default_rng(seed)
    xt = np.concatenate([rng.normal(0.0, 1.0, (n_per, 2)), rng.normal(gap, 1.0, (n_per, 2))])
    yt = [0] * n_per + [1] * n_per
    return xt, yt


def noisy_classes(n, d=4, classes=4, seed=1, spread=7.0, noise=0.05):
    """Gaussian classes with a share ``noise`` of labels redrawn at random."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, spread, (classes, d))
    y = rng.integers(0, classes, n)
    x = rng.normal(centers[y], 1.0)
    flip = rng.random(n) < noise
    return x, np.where(flip, rng.integers(0, classes, n), y)


def pairwise_resolve_overlaps(ds, result, cfg):
    """Reference: rescan every ball pair with heterogeneous_overlap after each split."""
    entries = list(zip(result.balls, result.stop_reasons, result.depths))
    audit = list(result.split_audit)
    unresolved = set()

    def splittable(ball, depth):
        return ball.size > max(cfg.min_points, cfg.split_k - 1) and depth < cfg.max_depth

    while True:
        entries.sort(key=lambda item: item[0].members[0])
        offending = None
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                key = (entries[i][0].members, entries[j][0].members)
                if key in unresolved:
                    continue
                if heterogeneous_overlap(entries[i][0], entries[j][0]):
                    offending = (i, j)
                    break
            if offending:
                break
        if offending is None:
            break
        i, j = offending
        first, second = (i, j) if entries[i][0].size >= entries[j][0].size else (j, i)
        target = None
        for idx in (first, second):
            if splittable(entries[idx][0], entries[idx][2]):
                target = idx
                break
        if target is None:
            unresolved.add((entries[i][0].members, entries[j][0].members))
            continue
        ball, _, depth = entries.pop(target)
        children = split(ds, ball, cfg.split_k, seed=cfg.seed, depth=depth)
        audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
        for child in children:
            reason = granular_ball._stop_reason(child, depth + 1, cfg) or "overlap_resolution"
            entries.append((child, reason, depth + 1))

    entries.sort(key=lambda item: item[0].members[0])
    return GbResult(
        balls=[b for b, _, _ in entries],
        stop_reasons=[r for _, r, _ in entries],
        depths=[d for _, _, d in entries],
        split_audit=audit,
        unresolved_overlaps=sorted(unresolved),
    )


def table_resolve_overlaps(ds, result, cfg):
    """Reference: a (B, B) pair table over the balls kept sorted by smallest member; each split
    deletes the split ball's row and column, pads the children's, and re-sorts balls and table."""
    entries = sorted(zip(result.balls, result.stop_reasons, result.depths), key=lambda e: e[0].members[0])
    audit = list(result.split_audit)
    unresolved = []

    def splittable(ball, depth):
        return ball.size > max(cfg.min_points, cfg.split_k - 1) and depth < cfg.max_depth

    def offending(fresh):
        balls = [b for b, _, _ in entries]
        labeled = np.array([b.majority_label is not None for b in balls])
        if len(balls) > 1 and not labeled.all():
            warnings.warn("overlap resolution over balls without a majority label", stacklevel=3)
        labels = np.array([b.majority_label or 0 for b in balls])
        centers = np.array([b.center for b in balls])
        radii = np.array([b.radius for b in balls])
        dist = np.array([row_distances(euclidean(), centers, centers[i]) for i in fresh])
        return labeled[fresh, None] & labeled & (labels[fresh, None] != labels) & (dist < radii[fresh, None] + radii)

    table = offending(np.arange(len(entries)))
    while True:
        hits = np.flatnonzero(table)
        if not hits.size:
            break
        i, j = divmod(int(hits[0]), len(entries))
        first, second = (i, j) if entries[i][0].size >= entries[j][0].size else (j, i)
        target = next((t for t in (first, second) if splittable(entries[t][0], entries[t][2])), None)
        if target is None:
            unresolved.append((entries[i][0].members, entries[j][0].members))
            table[i, j] = table[j, i] = False
            continue
        ball, _, depth = entries.pop(target)
        children = split(ds, ball, cfg.split_k, seed=cfg.seed, depth=depth)
        audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
        entries += [(c, granular_ball._stop_reason(c, depth + 1, cfg) or "overlap_resolution", depth + 1) for c in children]
        table = np.pad(np.delete(np.delete(table, target, axis=0), target, axis=1), (0, len(children)))
        fresh = np.arange(len(entries) - len(children), len(entries))
        table[fresh] = offending(fresh)
        table[:, fresh] = table[fresh].T
        order = sorted(range(len(entries)), key=lambda t: entries[t][0].members[0])
        entries = [entries[t] for t in order]
        table = table[order][:, order]

    return GbResult(
        balls=[b for b, _, _ in entries],
        stop_reasons=[r for _, r, _ in entries],
        depths=[d for _, _, d in entries],
        split_audit=audit,
        unresolved_overlaps=sorted(unresolved),
    )


def assert_same_result(got, want):
    assert [b.members for b in got.balls] == [b.members for b in want.balls]
    assert [b.center.tobytes() for b in got.balls] == [b.center.tobytes() for b in want.balls]
    assert [b.radius for b in got.balls] == [b.radius for b in want.balls]
    assert [(b.purity, b.majority_label) for b in got.balls] == [(b.purity, b.majority_label) for b in want.balls]
    assert got.stop_reasons == want.stop_reasons
    assert got.depths == want.depths
    assert got.split_audit == want.split_audit
    assert got.unresolved_overlaps == want.unresolved_overlaps
