import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granule.ball_kmeans import compute_radius
from granule.granular_ball import (
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
from granule.metrics import chebyshev, euclidean, manhattan


def ball_of(center, radius, members, label, purity_=1.0):
    return GranularBall(
        center=np.atleast_1d(np.asarray(center, dtype=float)),
        radius=radius,
        members=tuple(members),
        purity=purity_,
        majority_label=label,
    )


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

    def test_empty_member_set_rejected(self):
        ds = LabeledDataset.build([[0.0]], [0])
        with pytest.raises(ValueError):
            make_ball(ds, [])

    def test_mean_radius_bounded_by_max_radius(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 2, (12, 3))
        ds = LabeledDataset.build(pts, [0] * 12)
        b = make_ball(ds, range(12))
        assert b.radius <= compute_radius(ds.points, range(12), b.center) + 1e-12

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
        left = rng.normal(0.0, 0.4, (20, 1))
        right = rng.normal(2.0, 0.4, (20, 1))
        pts = np.concatenate([left, right])
        labels = [0] * 20 + [1] * 20
        ds = LabeledDataset.build(pts, labels)
        # one deliberately coarse ball per class, geometrically overlapping
        coarse = GbResult(
            balls=[make_ball(ds, range(20)), make_ball(ds, range(20, 40))],
            stop_reasons=["purity", "purity"],
            depths=[0, 0],
        )
        if heterogeneous_overlap(coarse.balls[0], coarse.balls[1]):
            resolved = resolve_overlaps(ds, coarse, GbConfig(purity_threshold=0.9, seed=3))
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


def two_blob_pair_heldout(n_per=50, gap=8.0, seed=77):
    rng = np.random.default_rng(seed)
    xt = np.concatenate([rng.normal(0.0, 1.0, (n_per, 2)), rng.normal(gap, 1.0, (n_per, 2))])
    yt = [0] * n_per + [1] * n_per
    return xt, yt
