import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granule.metrics import (
    DistanceFn,
    EmptySetError,
    Kind,
    MetricEvaluationError,
    chebyshev,
    classify_distance,
    euclidean,
    forward_gap,
    hausdorff_distance,
    infimal_distance,
    manhattan,
    point_set_distance,
    row_distances,
    squared_euclidean,
)

points_1d = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


def brute_hausdorff(fn, h, f):
    d_hf = max(min(fn.eval(np.atleast_1d(np.float64(x)), np.atleast_1d(np.float64(b))) for b in f) for x in h)
    d_fh = max(min(fn.eval(np.atleast_1d(np.float64(a)), np.atleast_1d(np.float64(y))) for a in h) for y in f)
    return max(d_hf, d_fh)


class TestClassify:
    def test_euclidean_is_metric_on_line(self):
        rep = classify_distance(euclidean(), [0.0, 1.0, 2.0])
        assert rep.identity and rep.symmetry and rep.triangle and rep.pseudo_identity
        assert rep.k_triangle[0] and rep.k_triangle[1] >= 1.0
        assert rep.witness is None

    def test_squared_euclidean_breaks_triangle_with_witness(self):
        rep = classify_distance(squared_euclidean(), [0.0, 1.0, 2.0])
        assert rep.identity and rep.symmetry and not rep.triangle
        a, b, c, lhs, rhs = rep.counterexamples["triangle"]
        assert (a, b, c) == (0.0, 2.0, 1.0)
        assert lhs == 4.0 and rhs == 2.0

    def test_forward_gap_breaks_symmetry(self):
        rep = classify_distance(forward_gap(), [0.0, 1.0])
        assert not rep.symmetry
        a, b, dab, dba = rep.counterexamples["symmetry"]
        assert {dab, dba} == {0.0, 1.0}
        # sigma(0, 1) = 0 with 0 != 1 also falsifies identity
        assert not rep.pseudo_identity and not rep.identity

    @given(points_1d)
    def test_euclidean_never_falsified(self, sample):
        rep = classify_distance(euclidean(), sample)
        assert rep.identity or any(
            sample[i] != sample[j] and abs(sample[i] - sample[j]) <= 1e-9
            for i in range(len(sample))
            for j in range(len(sample))
        )
        assert rep.symmetry and rep.triangle
        assert rep.k_triangle[0]

    @given(points_1d)
    def test_triangle_implies_unit_k(self, sample):
        rep = classify_distance(manhattan(), sample)
        if rep.triangle:
            holds, k = rep.k_triangle
            assert holds and k >= 1.0

    def test_identity_implies_pseudo_identity_across_zoo(self):
        sample = [0.0, 0.5, 1.0, 3.0]
        for factory in (euclidean, squared_euclidean, manhattan, chebyshev, forward_gap):
            rep = classify_distance(factory(), sample)
            assert not rep.identity or rep.pseudo_identity

    def test_declared_weak_quasi_checked_at_declared_k(self):
        base = squared_euclidean()
        loose = DistanceFn(
            name="sq-k", eval=base.eval, declared_kind=Kind.WEAK_QUASIMETRIC, declared_k=0.4
        )
        rep = classify_distance(loose, [0.0, 1.0, 2.0])
        assert rep.k_triangle == (True, 0.4)
        tight = DistanceFn(
            name="sq-k", eval=base.eval, declared_kind=Kind.WEAK_QUASIMETRIC, declared_k=0.6
        )
        rep = classify_distance(tight, [0.0, 1.0, 2.0])
        assert rep.k_triangle[0] is False

    def test_largest_k_matches_brute_force(self):
        sample = [0.0, 1.0, 2.0, 3.5]
        tol = 1e-9
        rep = classify_distance(squared_euclidean(), sample, tol=tol)
        fn = squared_euclidean()
        pts = [np.array([p]) for p in sample]
        ratios = [
            (fn.eval(a, c) + fn.eval(c, b) + tol) / fn.eval(a, b)
            for a in pts
            for b in pts
            for c in pts
            if fn.eval(a, b) > tol
        ]
        assert rep.k_triangle[1] == pytest.approx(min(ratios))

    def test_non_finite_distance_names_the_pair(self):
        bad = DistanceFn(name="bad", eval=lambda a, b: float("nan") if a[0] != b[0] else 0.0)
        with pytest.raises(MetricEvaluationError, match=r"\[2\.0\]"):
            classify_distance(bad, [1.0, 2.0])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            classify_distance(euclidean(), [])


class TestSetDistances:
    def test_point_set_examples(self):
        fn = euclidean()
        assert point_set_distance(fn, 0.0, [1.0, 2.0, 3.0]) == 1.0
        assert point_set_distance(fn, 2.0, [1.0, 2.0, 3.0]) == 0.0
        assert point_set_distance(fn, [0.0, 0.0], [[3.0, 4.0], [6.0, 8.0]]) == 5.0

    def test_point_set_empty_rejected(self):
        with pytest.raises(EmptySetError):
            point_set_distance(euclidean(), 0.0, [])

    def test_hausdorff_examples(self):
        fn = euclidean()
        assert hausdorff_distance(fn, [0.0, 1.0], [0.0, 1.0]) == 0.0
        assert hausdorff_distance(fn, [0.0], [3.0]) == 3.0
        h, f = [0.0, 1.0], [1.0, 2.0]
        expected = brute_hausdorff(fn, h, f)
        assert expected == 1.0
        assert hausdorff_distance(fn, h, f) == expected

    def test_infimal_examples(self):
        fn = euclidean()
        assert infimal_distance(fn, [0.0, 1.0], [1.0, 5.0]) == 0.0
        assert infimal_distance(fn, [0.0], [3.0]) == 3.0
        pairs = [abs(a - b) for a in (0.0, 10.0) for b in (4.0, 7.0)]
        assert min(pairs) == 3.0
        assert infimal_distance(fn, [0.0, 10.0], [4.0, 7.0]) == 3.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptySetError):
            hausdorff_distance(euclidean(), [], [1.0])
        with pytest.raises(EmptySetError):
            infimal_distance(euclidean(), [1.0], [])

    @given(points_1d, points_1d)
    def test_hausdorff_dominates_infimal(self, h, f):
        fn = euclidean()
        assert hausdorff_distance(fn, h, f) >= infimal_distance(fn, h, f)

    @given(points_1d, points_1d)
    def test_both_symmetric_for_symmetric_distance(self, h, f):
        fn = euclidean()
        assert hausdorff_distance(fn, h, f) == hausdorff_distance(fn, f, h)
        assert infimal_distance(fn, h, f) == infimal_distance(fn, f, h)

    @given(points_1d)
    def test_hausdorff_self_is_zero(self, h):
        assert hausdorff_distance(euclidean(), h, h) == 0.0


class TestRowKernels:
    @pytest.mark.parametrize("factory", [euclidean, manhattan, chebyshev])
    def test_paired_rows_match_eval_bit_for_bit(self, factory):
        # row i against v[i]: ball k-means gathers own centers and center shifts this way
        fn = factory()
        bare = dataclasses.replace(fn, rows=None)
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 8, 33):
            for scale in (1e-3, 1.0, 1e3, 1e8):
                a = rng.normal(0, scale, (100, d))
                b = a + rng.normal(0, scale, (100, d)) * rng.choice([1e-9, 1.0], (100, 1))
                ref = np.array([fn.eval(p, q) for p, q in zip(a, b)])
                assert fn.rows(a, b).tobytes() == ref.tobytes()
                assert row_distances(bare, a, b).tobytes() == ref.tobytes()
                assert row_distances(bare, a, b[0]).tobytes() == fn.rows(a, b[0]).tobytes()
