import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granule import metrics
from granule.ball_algebra import AmbientBall, CautiousBall, verify_laws
from granule.granular_ball import GranularBall, heterogeneous_overlap
from granule.metrics import (
    NAMED_DISTANCES,
    AxiomReport,
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

from conftest import counting

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

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_declared_k_refused(self, k):
        fn = dataclasses.replace(euclidean(), declared_kind=Kind.WEAK_QUASIMETRIC, declared_k=k)
        with pytest.raises(ValueError, match="declares a non-finite k"):
            classify_distance(fn, [0.0, 1.0])

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            classify_distance(euclidean(), [0.0, 1.0], tol=tol)

    def test_triples_in_bounded_memory(self):
        # the triangle and k-triangle scans go a block of first points at a
        # time; whole (s, s, s) float arrays would need 64 MB each here
        sample = list(np.random.default_rng(15).normal(size=(200, 3)))
        tracemalloc.start()
        try:
            reports = [classify_distance(fn, sample) for fn in (euclidean(), squared_euclidean())]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[0].is_metric_on_sample and not reports[1].triangle
        assert peak < 2 * 2**20


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

    def test_points_of_different_dimension_refused(self):
        # numpy would broadcast the 1-element point against the 2-D ones
        shapes = r"\(1,\) and \(2,\)"
        with pytest.raises(ValueError, match=shapes):
            hausdorff_distance(euclidean(), [[1.0]], [[2.0, 3.0]])
        with pytest.raises(ValueError, match=shapes):
            point_set_distance(euclidean(), [1.0], [[2.0, 3.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=shapes):
            infimal_distance(euclidean(), [[1.0], [2.0]], [[2.0, 3.0]])
        with pytest.raises(ValueError, match=shapes):
            classify_distance(euclidean(), [[1.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: classify_distance(chebyshev(), [[], []]),
            lambda: hausdorff_distance(euclidean(), [[]], [[]]),
            lambda: infimal_distance(euclidean(), [[]], [[]]),
            lambda: point_set_distance(euclidean(), [], [[]]),
        ],
        ids=["classify_distance", "hausdorff_distance", "infimal_distance", "point_set_distance"],
    )
    def test_zero_width_points_refused(self, call):
        # a reduction over no coordinates is numpy's error for max, and a silent 0.0 for a sum
        with pytest.raises(ValueError, match=r"non-empty 1-D vectors, got shape \(0,\)"):
            call()


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
    @pytest.mark.parametrize("name", sorted(NAMED_DISTANCES))
    def test_paired_rows_match_eval_bit_for_bit(self, name):
        # row i against v[i]: ball k-means gathers own centers and center shifts this way
        fn = NAMED_DISTANCES[name]()
        bare = dataclasses.replace(fn, rows=None)
        rng = np.random.default_rng(0)
        for d in [*range(1, 17), 33]:
            for scale in (1e-3, 1.0, 1e3, 1e8):
                a = rng.normal(0, scale, (100, d))
                b = a + rng.normal(0, scale, (100, d)) * rng.choice([1e-9, 1.0], (100, 1))
                ref = np.array([fn.eval(p, q) for p, q in zip(a, b)])
                assert fn.rows(a, b).tobytes() == ref.tobytes()
                assert row_distances(bare, a, b).tobytes() == ref.tobytes()
                assert row_distances(bare, a, b[0]).tobytes() == fn.rows(a, b[0]).tobytes()

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=lambda u: u.__name__)
    def test_row_reduce_is_numpys_reduce_bit_for_bit(self, ufunc):
        # pins the column order of _row_reduce to numpy's summation order: a numpy that changes it fails here
        rng = np.random.default_rng(26)
        nans = np.array([0x7FF8000000000002, 0xFFF8000000000001], dtype=np.uint64).view(float)  # with payloads
        specials = np.array([0.0, -0.0, 1.0, -np.inf, np.nan, -np.nan, *nans])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan rows on purpose
            for d in [*range(41), 129]:
                for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
                    t = rng.normal(0, 1, (40, d)) * scale * np.exp(rng.uniform(-20, 20, (40, d)))
                    t[:10] = [[0.0], [-0.0], [np.inf], [-np.inf], [np.nan], [-np.nan], [np.inf], [-0.0], [1.0], [1.0]]
                    t[6, 1::2] = -np.inf  # inf - inf: nan with its own sign bit
                    t[7, ::3] = 0.0
                    t[8, :1], t[9, -1:] = nans  # one nan, first or last
                    t[24:] = rng.choice(specials, (16, d))  # which zero or nan wins depends on the order
                    for x in (t, np.asfortranarray(t)):
                        if d == 0 and ufunc is np.maximum:  # no identity: numpy's own error, unchanged
                            with pytest.raises(ValueError, match="zero-size array"):
                                metrics._row_reduce(ufunc, x)
                            continue
                        ref = ufunc.reduce(np.ascontiguousarray(x), axis=1)
                        got = metrics._row_reduce(ufunc, x)
                        # numpy's compiled 8-term sum adds c3 + c2, so it keeps c3's nan where c2 and c3 hold two
                        # different nans: which nan a row keeps is no part of the order, only that it is nan
                        loose = (np.arange(len(t)) >= 24) & np.isnan(ref) & (ufunc is np.add and d == 8)
                        assert got[~loose].tobytes() == ref[~loose].tobytes(), (d, scale, x.flags.f_contiguous)
                        assert np.isnan(got[loose]).all()
        ints = np.arange(-12, 12).reshape(4, 6)
        assert metrics._row_reduce(ufunc, ints).tobytes() == ufunc.reduce(ints, axis=1).tobytes()

    def test_named_kernels_reduce_through_row_reduce(self, monkeypatch):
        seen = []
        real = metrics._row_reduce
        monkeypatch.setattr(metrics, "_row_reduce", lambda u, t: seen.append(u) or real(u, t))
        m = np.arange(12.0).reshape(4, 3)
        for name in sorted(NAMED_DISTANCES):
            NAMED_DISTANCES[name]().rows(m, m[0])
        assert seen == [np.maximum, np.add, np.add, np.add, np.add]


class TestPairwise:
    @pytest.mark.parametrize("name", sorted(NAMED_DISTANCES))
    @pytest.mark.parametrize("chunk", [metrics._CHUNK_ENTRIES, 50])
    def test_matches_per_pair_eval_bit_for_bit(self, name, chunk, monkeypatch):
        # a chunk of 50 coordinates spreads every shape over several row chunks
        monkeypatch.setattr(metrics, "_CHUNK_ENTRIES", chunk)
        fn = NAMED_DISTANCES[name]()
        bare = dataclasses.replace(fn, rows=None)  # eval only
        rng = np.random.default_rng(7)
        for d in (1, 2, 8, 33):
            for scale in (1e-8, 1.0, 1e8):
                a = rng.normal(0, scale, (23, d))
                b = np.concatenate([a[:3], rng.normal(0, scale, (6, d))])  # some zero distances
                ref = np.array([[fn.eval(p, q) for q in b] for p in a])
                assert metrics._pairwise(fn, a, b).tobytes() == ref.tobytes(), (d, scale)
                assert metrics._pairwise(bare, a, b).tobytes() == ref.tobytes(), (d, scale)
            grid = rng.integers(-3, 4, (17, d)).astype(float)
            ref = np.array([[fn.eval(p, q) for q in grid[:5]] for p in grid])
            assert metrics._pairwise(fn, grid, grid[:5]).tobytes() == ref.tobytes()

    def test_calls_follow_the_chunk_rule(self):
        log = []
        fn = counting(forward_gap(), log)
        a, b = np.random.default_rng(1).normal(size=(3000, 4)), np.ones((100, 4))
        dmat = metrics._pairwise(fn, a, b)
        rows = [m for _, m in log]
        assert len(rows) > 1 and all(m % 100 == 0 for m in rows)  # whole rows of a per call
        assert sum(rows) == 3000 * 100 and max(rows) * 4 <= metrics._CHUNK_ENTRIES
        assert dmat.shape == (3000, 100) and dmat[5, 0] == fn.eval(a[5], b[0])

    def test_set_distances_make_one_kernel_call(self):
        rng = np.random.default_rng(2)
        log = []
        fn = counting(euclidean(), log)
        point_set_distance(fn, [0.0, 0.0], rng.normal(size=(500, 2)))
        assert log == [("rows", 500)]
        log.clear()
        classify_distance(fn, list(rng.normal(size=150)))
        assert log == [("rows", 150 * 150)]


# -- loop oracle ---------------------------------------------------------------
# The per-pair checked-eval loops the four functions ran before they shared
# one checked distance matrix.


def loop_checked_eval(fn, a, b):
    v = float(fn.eval(a, b))
    if not math.isfinite(v) or v < 0.0:
        raise MetricEvaluationError(f"{fn.name} returned {v!r} on pair ({a.tolist()}, {b.tolist()})")
    return v


def _loop_point(p):
    return np.atleast_1d(np.asarray(p, dtype=float))


def loop_classify_distance(fn, sample, tol=1e-9):
    pts = [_loop_point(p) for p in sample]
    s = len(pts)
    dmat = np.empty((s, s))
    for i in range(s):
        for j in range(s):
            dmat[i, j] = loop_checked_eval(fn, pts[i], pts[j])
    same = np.array([[np.array_equal(pts[i], pts[j]) for j in range(s)] for i in range(s)])
    counterexamples = {}

    def _pt(i):
        return float(pts[i][0]) if pts[i].size == 1 else tuple(pts[i].tolist())

    pseudo = True
    bad = np.argwhere(~same & (dmat <= tol))
    if bad.size:
        i, j = map(int, bad[0])
        pseudo = False
        counterexamples["pseudo_identity"] = (_pt(i), _pt(j), float(dmat[i, j]))
    identity = pseudo
    diag_bad = np.argwhere(same & (dmat != 0.0))
    if diag_bad.size:
        i, j = map(int, diag_bad[0])
        identity = False
        counterexamples.setdefault("identity", (_pt(i), _pt(j), float(dmat[i, j])))
    elif not pseudo:
        counterexamples["identity"] = counterexamples["pseudo_identity"]
    symmetry = True
    asym = np.argwhere(np.triu(np.abs(dmat - dmat.T) > tol, k=1))
    if asym.size:
        i, j = map(int, asym[0])
        symmetry = False
        counterexamples["symmetry"] = (_pt(i), _pt(j), float(dmat[i, j]), float(dmat[j, i]))
    sums = dmat[:, None, :] + dmat.T[None, :, :]
    tri_viol = dmat[:, :, None] > sums + tol
    triangle = not tri_viol.any()
    if not triangle:
        i, j, c = map(int, np.argwhere(tri_viol)[0])
        counterexamples["triangle"] = (_pt(i), _pt(j), _pt(c), float(dmat[i, j]), float(dmat[i, c] + dmat[c, j]))
    if fn.declared_kind is Kind.WEAK_QUASIMETRIC and fn.declared_k is not None:
        k_used = float(fn.declared_k)
        k_holds = bool((k_used * dmat[:, :, None] <= sums + tol).all())
        if not k_holds:
            i, j, c = map(int, np.argwhere(k_used * dmat[:, :, None] > sums + tol)[0])
            counterexamples["k_triangle"] = (_pt(i), _pt(j), _pt(c), k_used)
    else:
        denom = np.where(dmat > tol, dmat, np.inf)[:, :, None]
        ratios = np.where(dmat[:, :, None] > tol, (sums + tol) / denom, np.inf)
        k_used = float(ratios.min())
        k_holds = k_used > 0.0
        if not k_holds:
            i, j, c = map(int, np.argwhere(ratios == k_used)[0])
            counterexamples["k_triangle"] = (_pt(i), _pt(j), _pt(c), k_used)
    order = ["identity", "symmetry", "triangle", "k_triangle", "pseudo_identity"]
    witness = next((counterexamples[n] for n in order if n in counterexamples), None)
    return AxiomReport(identity, symmetry, triangle, (k_holds, k_used), pseudo, witness, counterexamples)


def loop_point_set_distance(fn, x, h):
    xv = _loop_point(x)
    return min(loop_checked_eval(fn, xv, _loop_point(a)) for a in h)


def loop_hausdorff_distance(fn, h, f):
    hp = [_loop_point(p) for p in h]
    fp = [_loop_point(p) for p in f]
    d_hf = max(min(loop_checked_eval(fn, x, b) for b in fp) for x in hp)
    d_fh = max(min(loop_checked_eval(fn, a, y) for a in hp) for y in fp)
    return max(d_hf, d_fh)


def loop_infimal_distance(fn, h, f):
    hp = [_loop_point(p) for p in h]
    fp = [_loop_point(p) for p in f]
    return min(loop_checked_eval(fn, a, b) for a in hp for b in fp)


def _nan_beyond() -> DistanceFn:
    # NaN once the first coordinates sum past 2.5, euclidean otherwise
    base = euclidean()
    return DistanceFn(
        name="nan-beyond",
        eval=lambda a, b: float("nan") if a[0] + b[0] > 2.5 else base.eval(a, b),
        rows=lambda m, v: np.where(m[:, 0] + v[..., 0] > 2.5, np.nan, base.rows(m, v)),
    )


def _signed_gap() -> DistanceFn:
    # negative whenever a[0] > b[0]
    return DistanceFn(
        name="signed-gap",
        eval=lambda a, b: float(b[0] - a[0]),
        rows=lambda m, v: v[..., 0] - m[:, 0],
    )


def _oracle_distances():
    fns = [factory() for factory in NAMED_DISTANCES.values()] + [_nan_beyond(), _signed_gap()]
    return fns + [dataclasses.replace(fn, name=fn.name + "/eval", rows=None) for fn in fns]


def _outcome(f, *args):
    """("value", result) or ("error", type, text); repr keeps report field types."""
    try:
        out = f(*args)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("value", repr(out) if isinstance(out, AxiomReport) else out, type(out))


class TestLoopOracle:
    def test_matrix_paths_equal_checked_eval_loops(self):
        rng = np.random.default_rng(16157)
        pairs = [
            (classify_distance, loop_classify_distance),
            (point_set_distance, loop_point_set_distance),
            (hausdorff_distance, loop_hausdorff_distance),
            (infimal_distance, loop_infimal_distance),
        ]
        cases = errors = 0
        for trial in range(60):
            d = 1 + trial % 2
            if trial % 3 == 0:
                draw = lambda n: rng.integers(0, 4, size=(n, d)).astype(float)  # noqa: E731
            else:
                draw = lambda n: np.round(rng.normal(1.0, 1.5, size=(n, d)), 1 + trial % 4)  # noqa: E731
            h, f = draw(int(rng.integers(1, 7))), draw(int(rng.integers(1, 7)))
            sample = list(np.concatenate([h, h[:1]])) if trial % 5 == 0 else list(h)
            for fn in _oracle_distances():
                args = [(fn, sample), (fn, f[0], list(h)), (fn, list(h), list(f)), (fn, list(h), list(f))]
                for (new, old), a in zip(pairs, args):
                    got = _outcome(new, *a)
                    assert got == _outcome(old, *a), (fn.name, new.__name__, trial)
                    cases += 1
                    errors += got[0] == "error"
        assert cases == 60 * 14 * 4 and errors > 100

    def test_one_first_point_per_block_equals_the_loop(self, monkeypatch):
        # every first point its own block, so that block offsets count in the
        # witnesses; at tol 0 the blind distance reaches a k-triangle ratio of 0
        monkeypatch.setattr(metrics, "_CHUNK_ENTRIES", 1)
        base = manhattan()
        blind = DistanceFn(
            "blind-within-1",
            eval=lambda a, b: base.eval(a, b) if base.eval(a, b) > 1.0 else 0.0,
            rows=lambda m, v: np.where(base.rows(m, v) > 1.0, base.rows(m, v), 0.0),
        )
        weak = dataclasses.replace(squared_euclidean(), declared_kind=Kind.WEAK_QUASIMETRIC, declared_k=0.6)
        rng = np.random.default_rng(15)
        reached = set()
        for trial in range(24):
            d, tol = 1 + trial % 2, 0.0 if trial % 3 else 1e-9
            sample = list(np.round(rng.normal(1.0, 1.5, size=(int(rng.integers(2, 8)), d)), 1 + trial % 3))
            for fn in _oracle_distances() + [blind, weak]:
                got = _outcome(classify_distance, fn, sample, tol)
                assert got == _outcome(loop_classify_distance, fn, sample, tol), (fn.name, trial)
                if got[0] == "value":
                    reached.update(classify_distance(fn, sample, tol).counterexamples)
        assert reached == {"identity", "pseudo_identity", "symmetry", "triangle", "k_triangle"}


def _eval_refused(a, b):
    raise AssertionError("scalar eval called")


class TestOneKernel:
    def test_library_distances_never_call_eval(self):
        # every distance in the library goes through row_distances, so a
        # DistanceFn with a row kernel needs no working eval
        ref = euclidean()
        fn = DistanceFn("rows-only", eval=_eval_refused, declared_kind=Kind.METRIC, rows=ref.rows)
        v = np.array([[float(x), float(y)] for x in range(-2, 3) for y in range(-2, 3)])
        cau = CautiousBall.build([0.0, 0.0], 1.5, v, distance=fn)
        assert cau.members == CautiousBall.build([0.0, 0.0], 1.5, v).members
        assert cau.ambient.contains([1.0, 1.0]) and not cau.ambient.contains([2.0, 1.0])
        assert verify_laws(cau.ambient, cau) == verify_laws(AmbientBall([0.0, 0.0], 1.5), cau)
        sample = [0.0, 1.0, 2.5]
        assert classify_distance(fn, sample) == classify_distance(ref, sample)
        h, f = [[0.0, 1.0], [2.0, 2.0]], [[1.0, 1.0], [3.0, 0.0], [0.5, 0.5]]
        for g in (fn, ref):
            assert point_set_distance(g, [0.0, 0.0], f) == point_set_distance(ref, [0.0, 0.0], f)
            assert hausdorff_distance(g, h, f) == hausdorff_distance(ref, h, f)
            assert infimal_distance(g, h, f) == infimal_distance(ref, h, f)
        b1 = GranularBall(np.array([0.0, 0.0]), 1.0, (0,), 1.0, 0)
        b2 = GranularBall(np.array([1.5, 0.0]), 1.0, (1,), 1.0, 1)
        assert heterogeneous_overlap(b1, b2, fn)
