import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granule.ball_algebra import (
    DEFAULT_SCALAR_GRID,
    AmbientBall,
    BallDomainError,
    CautiousBall,
    LawReport,
    LawResult,
    PartialValue,
    oplus,
    ovee,
    scalar_mul,
    verify_laws,
    weak_equal,
    weak_star_equal,
)
from granule.metrics import chebyshev, euclidean, manhattan


def int_line_ball(radius=3):
    v = np.array([[float(t)] for t in range(-radius, radius + 1)])
    return AmbientBall(center=[0.0], radius=float(radius)), CautiousBall.build(
        [0.0], float(radius), v
    )


class TestAmbientBall:
    @pytest.mark.parametrize("center, shape", [([], r"\(0,\)"), (np.empty((1, 0)), r"\(1, 0\)"), ([[0.0]], r"\(1, 1\)")])
    def test_zero_width_or_matrix_center_refused(self, center, shape):
        with pytest.raises(ValueError, match=f"non-empty 1-D vector, got shape {shape}"):
            AmbientBall(center=center, radius=1.0)

    def test_scalar_center_is_one_coordinate(self):
        assert AmbientBall(center=2.0, radius=1.0).center.tolist() == [2.0]


class TestOplus:
    def test_defined_inside(self):
        ball = AmbientBall(center=[0.0], radius=1.0)
        out = oplus(ball, 0.5, [1.0], 0.5, [1.0])
        assert out.defined and out.value.tolist() == [1.0]

    def test_undefined_outside(self):
        ball = AmbientBall(center=[0.0], radius=1.0)
        assert not oplus(ball, 1.0, [0.8], 1.0, [0.8]).defined

    def test_difference_hits_zero(self):
        ball = AmbientBall(center=[0.0], radius=1.0)
        out = oplus(ball, 1.0, [0.7], -1.0, [0.7])
        assert out.defined and out.value.tolist() == [0.0]

    def test_operand_outside_is_domain_error(self):
        ball = AmbientBall(center=[0.0], radius=1.0)
        with pytest.raises(BallDomainError):
            oplus(ball, 1.0, [5.0], 1.0, [0.0])


class TestOvee:
    def test_trace_membership_cases(self):
        cau = CautiousBall.build([1.0], 1.0, np.array([[0.0], [1.0], [2.0]]))
        assert ovee(cau, 1.0, [0.0], 1.0, [1.0]).value.tolist() == [1.0]
        assert ovee(cau, 1.0, [0.0], 1.0, [2.0]).value.tolist() == [2.0]
        assert not scalar_mul(cau, 0.5, [1.0]).defined  # 0.5 is not a V point

    def test_members_are_trace_of_ball(self):
        cau = CautiousBall.build([1.0], 1.0, np.array([[0.0], [1.0], [2.0], [9.0]]))
        assert cau.members == (0, 1, 2)

    def test_locate_matches_coordinate_scan(self):
        v = np.array([[0.0, 1.0], [1.0, -0.0], [np.nan, 0.0], [0.0, 1.0], [2.0, 2.0]])
        cau = CautiousBall.build([0.0, 0.0], 1.5, v)
        queries = [[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [np.nan, 0.0], [2.0, 2.0], [3.0, 3.0]]
        for x in queries:
            hits = np.flatnonzero((v == np.array(x)).all(axis=1))
            assert cau.locate(x) == (int(hits[0]) if hits.size else None)
        assert cau.locate([-0.0, 1.0]) == 0  # first of two equal rows, -0.0 == 0.0
        assert cau.locate([np.nan, 0.0]) is None
        assert [cau.contains(x) for x in queries] == [True, True, True, False, False, False]

    def test_non_member_operand_is_domain_error(self):
        cau = CautiousBall.build([1.0], 1.0, np.array([[0.0], [1.0], [2.0], [9.0]]))
        with pytest.raises(BallDomainError):
            ovee(cau, 1.0, [9.0], 1.0, [1.0])


class TestScalarMul:
    def test_identity_scalar(self):
        ball = AmbientBall(center=[0.0], radius=2.0)
        out = scalar_mul(ball, 1.0, [1.5])
        assert out.defined and out.value.tolist() == [1.5]

    def test_zero_scalar_when_ball_holds_origin(self):
        ball = AmbientBall(center=[0.0], radius=2.0)
        assert scalar_mul(ball, 0.0, [1.5]).value.tolist() == [0.0]

    def test_escaping_scale_undefined(self):
        ball = AmbientBall(center=[0.0], radius=2.0)
        assert not scalar_mul(ball, 2.0, [1.5]).defined


class TestWeakEqualities:
    def test_weak_cases(self):
        d1 = PartialValue.of([1.0])
        d2 = PartialValue.of([2.0])
        u = PartialValue.undefined()
        assert weak_equal(u, d1)
        assert weak_equal(d1, PartialValue.of([1.0]))
        assert not weak_equal(d1, d2)

    def test_weak_star_cases(self):
        d1 = PartialValue.of([1.0])
        u = PartialValue.undefined()
        assert weak_star_equal(u, PartialValue.undefined())
        assert not weak_star_equal(u, d1)
        assert weak_star_equal(d1, PartialValue.of([1.0]))

    @given(
        st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
        st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)),
    )
    def test_star_implies_weak(self, a, b):
        t1 = PartialValue.undefined() if a is None else PartialValue.of([a])
        t2 = PartialValue.undefined() if b is None else PartialValue.of([b])
        if weak_star_equal(t1, t2):
            assert weak_equal(t1, t2)


class TestVerifyLaws:
    def test_standard_fixture_all_laws_hold(self):
        amb, cau = int_line_ball(3)
        report = verify_laws(amb, cau)
        assert report.all_hold
        assert report.dom_contained
        assert report.properness_witness is not None

    def test_properness_witness_decodes(self):
        amb, cau = int_line_ball(3)
        report = verify_laws(amb, cau)
        alpha, beta, ia, ib = report.properness_witness
        a = cau.member_points()[ia]
        b = cau.member_points()[ib]
        assert oplus(amb, alpha, a, beta, b).defined
        assert not ovee(cau, alpha, a, beta, b).defined

    def test_ball_without_origin_is_vacuous_for_zero_laws(self):
        v = np.array([[float(t)] for t in range(8, 13)])
        amb = AmbientBall(center=[10.0], radius=2.0)
        cau = CautiousBall.build([10.0], 2.0, v)
        report = verify_laws(amb, cau)
        assert report.all_hold
        assert report.ambient["weak_star_zero"].checked == 0
        assert "vacuous" in report.ambient["weak_star_zero"].note
        assert report.ambient["inverse"].checked == 0

    def test_two_dimensional_lattice_fixture(self):
        pts = np.array([[float(a), float(b)] for a in (-1, 0, 1) for b in (-1, 0, 1)])
        amb = AmbientBall(center=[0.0, 0.0], radius=1.5)
        cau = CautiousBall.build([0.0, 0.0], 1.5, pts)
        report = verify_laws(amb, cau)
        assert report.all_hold
        assert len(cau.members) == 9

    def test_strong_associativity_genuinely_fails(self):
        # a+(b+c) lands inside while a+b escapes: why only the weak law is claimed
        ball = AmbientBall(center=[0.0], radius=2.0)
        a = np.array([2.0])
        b = np.array([2.0])
        c = np.array([-2.0])
        inner = oplus(ball, 1.0, b, 1.0, c)
        assert inner.defined
        lhs = oplus(ball, 1.0, a, 1.0, inner.value)
        assert lhs.defined
        assert not oplus(ball, 1.0, a, 1.0, b).defined

    def test_cautious_scal2_reverse_direction_has_gaps(self):
        # (alpha+beta)a can be a member while alpha*a left V: the full
        # both-ways law is unprovable on traces, hence the directional check
        amb, cau = int_line_ball(3)
        report = verify_laws(amb, cau)
        assert report.scal2_reverse_gaps > 0
        assert report.cautious["weak_star_scal2"].holds

    def test_defined_results_stay_in_carrier(self):
        amb, cau = int_line_ball(2)
        for alpha in DEFAULT_SCALAR_GRID:
            for a in cau.member_points():
                for b in cau.member_points():
                    out = ovee(cau, alpha, a, 1.0, b)
                    if out.defined:
                        assert cau.contains(out.value)
                    out = oplus(amb, alpha, a, 1.0, b)
                    if out.defined:
                        assert amb.contains(out.value)

    def test_empty_cautious_ball_rejected(self):
        v = np.array([[50.0]])
        amb = AmbientBall(center=[0.0], radius=1.0)
        cau = CautiousBall.build([0.0], 1.0, v)
        with pytest.raises(ValueError):
            verify_laws(amb, cau)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        cau = CautiousBall.build([0.0], 1.0, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            verify_laws(cau.ambient, cau, tol=tol)

    def test_empty_scalar_grid_rejected(self):
        cau = CautiousBall.build([0.0], 1.0, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="scalar_grid is empty"):
            verify_laws(cau.ambient, cau, scalar_grid=())


# -- scalar oracle ------------------------------------------------------------
# The law loops verify_laws ran before its families became array tests, on
# their own eval-based membership, so that no code is shared with the library
# beyond the ball classes.  The inverse family keeps its first violation.


def _loop_contains(ball, x):
    x = np.asarray(x, dtype=float)
    if isinstance(ball, CautiousBall):
        return ball.locate(x) in set(ball.members)
    return float(ball.distance.eval(x, ball.center)) <= ball.radius


def _loop_require(ball, x, label):
    if not _loop_contains(ball, x):
        raise BallDomainError(f"operand {label}={np.asarray(x).tolist()} lies outside the ball")


def _loop_scalar_mul(ball, alpha, a):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    _loop_require(ball, a, "a")
    v = alpha * a
    return PartialValue.of(v) if _loop_contains(ball, v) else PartialValue.undefined()


def _loop_combine(ball, alpha, a, beta, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _loop_require(ball, a, "a")
    _loop_require(ball, b, "b")
    v = alpha * a + beta * b
    ok = _loop_contains(ball, v)
    if isinstance(ball, CautiousBall):
        ok = _loop_contains(ball, alpha * a) and _loop_contains(ball, beta * b) and ok
    return PartialValue.of(v) if ok else PartialValue.undefined()


def _loop_law_suite(ball, sample, grid, tol, cautious):
    laws = {}
    zero = np.zeros_like(sample[0])
    has_zero = _loop_contains(ball, zero)
    comb = _loop_combine

    def record(name, ok, count, witness, note=""):
        laws[name] = LawResult(holds=ok, checked=count, counterexample=witness, note=note)

    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            count += 1
            if not weak_star_equal(comb(ball, 1.0, a, 1.0, b), comb(ball, 1.0, b, 1.0, a), tol):
                ok, witness = False, (ia, ib)
                break
        if not ok:
            break
    record("weak_star_comm", ok, count, witness)

    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            for ic, c in enumerate(sample):
                count += 1
                inner_r = comb(ball, 1.0, b, 1.0, c)
                lhs = comb(ball, 1.0, a, 1.0, inner_r.value) if inner_r.defined else PartialValue.undefined()
                inner_l = comb(ball, 1.0, a, 1.0, b)
                rhs = comb(ball, 1.0, inner_l.value, 1.0, c) if inner_l.defined else PartialValue.undefined()
                if not weak_equal(lhs, rhs, tol):
                    ok, witness = False, (ia, ib, ic)
                    break
            if not ok:
                break
        if not ok:
            break
    record("weak_assoc", ok, count, witness)

    ok, count, witness = True, 0, None
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                count += 1
                inner = _loop_scalar_mul(ball, beta, a)
                lhs = _loop_scalar_mul(ball, alpha, inner.value) if inner.defined else PartialValue.undefined()
                rhs = _loop_scalar_mul(ball, alpha * beta, a)
                if not weak_equal(lhs, rhs, tol):
                    ok, witness = False, (alpha, beta, ia)
                    break
            if not ok:
                break
        if not ok:
            break
    record("weak_scal1", ok, count, witness)

    ok, count, witness, rev_gaps = True, 0, None, 0
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                count += 1
                lhs = comb(ball, alpha, a, beta, a)
                rhs = _loop_scalar_mul(ball, alpha + beta, a)
                if cautious:
                    if lhs.defined and not (rhs.defined and weak_equal(lhs, rhs, tol)):
                        if ok:
                            ok, witness = False, (alpha, beta, ia)
                    elif rhs.defined and not lhs.defined:
                        rev_gaps += 1
                elif not weak_star_equal(lhs, rhs, tol) and ok:
                    ok, witness = False, (alpha, beta, ia)
    note = "directional: combination defined => scalar side defined" if cautious else ""
    record("weak_star_scal2", ok, count, witness, note)

    ok, count, witness = True, 0, None
    if has_zero:
        for ia, a in enumerate(sample):
            count += 1
            if not weak_star_equal(comb(ball, 1.0, a, 1.0, zero), comb(ball, 1.0, zero, 1.0, a), tol):
                ok, witness = False, (ia,)
                break
        record("weak_star_zero", ok, count, witness)
    else:
        record("weak_star_zero", True, 0, None, "vacuous: 0 outside the carrier")

    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            ab = comb(ball, 1.0, a, 1.0, b)
            if not (ab.defined and np.all(np.abs(ab.value) <= tol)):
                continue
            for ic, c in enumerate(sample):
                ac = comb(ball, 1.0, a, 1.0, c)
                if not (ac.defined and np.all(np.abs(ac.value) <= tol)):
                    continue
                count += 1
                if not np.all(np.abs(b - c) <= 2.0 * tol) and ok:
                    ok, witness = False, (ia, ib, ic)
    record("inverse", ok, count, witness)
    return laws, rev_gaps


def loop_verify_laws(ambient, cautious, scalar_grid=DEFAULT_SCALAR_GRID, tol=1e-9):
    sample = cautious.member_points()
    if not sample:
        raise ValueError("cautious ball has no members to enumerate")
    grid = tuple(float(g) for g in scalar_grid)
    amb_laws, _ = _loop_law_suite(ambient, sample, grid, tol, cautious=False)
    cau_laws, rev_gaps = _loop_law_suite(cautious, sample, grid, tol, cautious=True)
    contained, dom_count, dom_witness, properness = True, 0, None, None
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                for ib, b in enumerate(sample):
                    dom_count += 1
                    cautious_val = _loop_combine(cautious, alpha, a, beta, b)
                    ambient_val = _loop_combine(ambient, alpha, a, beta, b)
                    if cautious_val.defined and not ambient_val.defined and contained:
                        contained, dom_witness = False, (alpha, beta, ia, ib)
                    if properness is None and ambient_val.defined and not cautious_val.defined:
                        properness = (alpha, beta, ia, ib)
    return LawReport(
        ambient=amb_laws,
        cautious=cau_laws,
        dom_contained=contained,
        dom_checked=dom_count,
        dom_counterexample=dom_witness,
        properness_witness=properness,
        scal2_reverse_gaps=rev_gaps,
    )


NON_DYADIC_GRID = (-1.0, -0.1, 0.3, 1.0, 2.0)
V_KINDS = ("integer", "tenth", "half", "normal")
TOLS = (0.0, 1e-9, 1e-3, 0.5)
METRICS = (euclidean, manhattan, chebyshev)


def _v_points(rng, kind, n, d):
    if kind == "integer":
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    if kind == "tenth":
        return np.round(rng.uniform(-1.5, 1.5, size=(n, d)), 1)
    if kind == "half":
        return rng.integers(-4, 5, size=(n, d)) / 2.0
    return rng.normal(size=(n, d))


def law_corpus(count=300, seed=2308):
    """Seeded (name, ambient, cautious, grid, tol) fixtures over every kind, metric, tol and grid.

    Every eighth fixture checks against an ambient ball of half the radius,
    so that some members lie outside it.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d, kind = 1 + k % 3, V_KINDS[(k // 3) % 4]
        fn, tol = METRICS[(k // 12) % 3], TOLS[(k // 36) % 4]
        grid = NON_DYADIC_GRID if (k // 144) % 2 else DEFAULT_SCALAR_GRID
        cau = None
        while cau is None or not cau.members:
            center = np.zeros(d) if rng.random() < 0.75 else np.round(rng.uniform(-1, 1, d), 1)
            radius = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            v = _v_points(rng, kind, int(rng.integers(3, 6)), d)
            cau = CautiousBall.build(center, radius, v, distance=fn())
        amb = cau.ambient if k % 8 else AmbientBall(center, radius / 2, distance=fn())
        out.append((f"{k}:{kind}:{d}d:{fn().name}:tol={tol}", amb, cau, grid, tol))
    return out


def _outcome(verify, amb, cau, grid, tol):
    """repr of the report (so witness types count too), or the domain error text."""
    try:
        return repr(verify(amb, cau, scalar_grid=grid, tol=tol))
    except BallDomainError as exc:
        return f"BallDomainError: {exc}"


class TestLawOracle:
    def test_array_suite_equals_scalar_loops_on_corpus(self):
        failed = {"weak_assoc": 0, "weak_scal1": 0, "weak_star_scal2": 0, "domain": 0}
        for name, amb, cau, grid, tol in law_corpus():
            got = _outcome(verify_laws, amb, cau, grid, tol)
            assert got == _outcome(loop_verify_laws, amb, cau, grid, tol), name
            if got.startswith("BallDomainError"):
                failed["domain"] += 1
                continue
            report = verify_laws(amb, cau, scalar_grid=grid, tol=tol)
            for law in ("weak_assoc", "weak_scal1", "weak_star_scal2"):
                failed[law] += not report.ambient[law].holds
        # the corpus reaches each ambient failure and the domain error
        assert all(failed.values()), failed

    def test_domain_error_names_first_outside_member(self):
        cau = CautiousBall.build([0.0], 2.0, np.array([[-2.0], [0.0], [1.0], [2.0]]))
        with pytest.raises(BallDomainError, match=r"operand a=\[-2.0\]"):
            verify_laws(AmbientBall([0.0], 1.5), cau)
        with pytest.raises(BallDomainError, match=r"operand b=\[1.0\]"):
            verify_laws(AmbientBall([-1.0], 1.5), cau)


class TestBenchmarkFixture:
    def test_radius_two_lattice_counts(self):
        # the verifiers workload's ball: the integer lattice of [-2, 2]^2
        v = np.array([[float(x), float(y)] for x in range(-2, 3) for y in range(-2, 3)])
        cau = CautiousBall.build([0.0, 0.0], 2.0, v)
        assert cau.members == (2, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17, 18, 22)
        report = verify_laws(cau.ambient, cau)
        expected = {
            "weak_star_comm": 169,
            "weak_assoc": 2197,
            "weak_scal1": 637,
            "weak_star_scal2": 637,
            "weak_star_zero": 13,
            "inverse": 13,
        }
        for laws in (report.ambient, report.cautious):
            assert {name: r.checked for name, r in laws.items()} == expected
        assert report.all_hold
        assert report.dom_checked == 8281
        assert report.properness_witness == (-2.0, -2.0, 0, 10)
        assert report.scal2_reverse_gaps == 80
