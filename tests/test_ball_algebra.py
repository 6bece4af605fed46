import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granule.ball_algebra import (
    DEFAULT_SCALAR_GRID,
    AmbientBall,
    BallDomainError,
    CautiousBall,
    PartialValue,
    oplus,
    ovee,
    scalar_mul,
    verify_laws,
    weak_equal,
    weak_star_equal,
)


def int_line_ball(radius=3):
    v = np.array([[float(t)] for t in range(-radius, radius + 1)])
    return AmbientBall(center=[0.0], radius=float(radius)), CautiousBall.build(
        [0.0], float(radius), v
    )


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
