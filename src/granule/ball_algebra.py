"""Partial linear-combination algebras on closed balls.

Two carriers: the ambient closed ball (all vectors within radius of the
center) and the cautious closed ball (its trace on a finite point set V).
The scaled sum ``alpha a (+) beta b`` is defined on the ambient ball iff the
resulting vector stays inside; on the cautious ball the scaled parts and the
sum must additionally all be (exact) elements of V.  ``verify_laws``
exhaustively checks the weak-equality laws both carriers satisfy and the
domain containment between the two operations.

Intended fixtures use dyadic coordinates and scalars (integers, halves) so
that membership tests are exact; payload equality uses a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .metrics import DistanceFn, euclidean

__all__ = [
    "AmbientBall",
    "CautiousBall",
    "PartialValue",
    "BallDomainError",
    "LawResult",
    "LawReport",
    "DEFAULT_SCALAR_GRID",
    "oplus",
    "ovee",
    "scalar_mul",
    "weak_equal",
    "weak_star_equal",
    "verify_laws",
]

DEFAULT_SCALAR_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
DEFAULT_TOL = 1e-9


class BallDomainError(ValueError):
    """An operand lies outside the carrier ball (distinct from Undefined results)."""


@dataclass(frozen=True)
class PartialValue:
    """Result of a partial operation: a vector, or undefined."""

    value: Optional[np.ndarray]

    @classmethod
    def of(cls, v: np.ndarray) -> "PartialValue":
        return cls(np.asarray(v, dtype=float))

    @classmethod
    def undefined(cls) -> "PartialValue":
        return cls(None)

    @property
    def defined(self) -> bool:
        return self.value is not None


def weak_equal(t1: PartialValue, t2: PartialValue, tol: float = DEFAULT_TOL) -> bool:
    """Equal whenever both sides are defined; vacuously true otherwise."""
    if not (t1.defined and t2.defined):
        return True
    return bool(np.all(np.abs(t1.value - t2.value) <= tol))


def weak_star_equal(t1: PartialValue, t2: PartialValue, tol: float = DEFAULT_TOL) -> bool:
    """Defined together and equal, or undefined together."""
    if t1.defined != t2.defined:
        return False
    return weak_equal(t1, t2, tol)


@dataclass(frozen=True)
class AmbientBall:
    """Closed ball in the ambient vector space."""

    center: np.ndarray
    radius: float
    distance: DistanceFn = field(default_factory=euclidean)

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, x: np.ndarray) -> bool:
        return float(self.distance.eval(np.asarray(x, dtype=float), self.center)) <= self.radius


@dataclass(frozen=True)
class CautiousBall:
    """Trace of a closed ball on the finite point set V; members are V-indices."""

    ambient: AmbientBall
    points: np.ndarray  # V, one point per row
    members: tuple
    _index: dict = field(init=False, repr=False, compare=False)
    _member_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # tuple keys match as a coordinate scan does: -0.0 == 0.0, NaN never;
        # reversed, so that the first of equal rows is kept
        rows = list(enumerate(np.atleast_2d(np.asarray(self.points, dtype=float)).tolist()))
        object.__setattr__(self, "_index", {tuple(row): i for i, row in reversed(rows)})
        object.__setattr__(self, "_member_set", frozenset(self.members))

    @classmethod
    def build(
        cls, center, radius: float, points, distance: DistanceFn = None
    ) -> "CautiousBall":
        fn = distance if distance is not None else euclidean()
        ambient = AmbientBall(center=center, radius=radius, distance=fn)
        v = np.atleast_2d(np.asarray(points, dtype=float))
        members = tuple(
            int(i) for i in range(v.shape[0]) if ambient.contains(v[i])
        )
        return cls(ambient=ambient, points=v, members=members)

    def locate(self, x: np.ndarray) -> Optional[int]:
        """Index of x in V by exact coordinate identity; None when absent."""
        return self._index.get(tuple(np.asarray(x, dtype=float).ravel().tolist()))

    def contains(self, x: np.ndarray) -> bool:
        return self.locate(x) in self._member_set

    def member_points(self) -> list[np.ndarray]:
        return [self.points[i] for i in self.members]


Ball = Union[AmbientBall, CautiousBall]


def _require_operand(ball: Ball, x: np.ndarray, label: str) -> None:
    if not ball.contains(x):
        raise BallDomainError(f"operand {label}={np.asarray(x).tolist()} lies outside the ball")


def oplus(
    ball: AmbientBall, alpha: float, a: np.ndarray, beta: float, b: np.ndarray
) -> PartialValue:
    """alpha a + beta b on the ambient ball, defined iff the sum stays inside."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _require_operand(ball, a, "a")
    _require_operand(ball, b, "b")
    v = alpha * a + beta * b
    return PartialValue.of(v) if ball.contains(v) else PartialValue.undefined()


def ovee(
    ball: CautiousBall, alpha: float, a: np.ndarray, beta: float, b: np.ndarray
) -> PartialValue:
    """alpha a + beta b on the cautious ball.

    Defined iff alpha a, beta b and the sum are all members of the trace
    (hence elements of V, matched by exact coordinate identity).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _require_operand(ball, a, "a")
    _require_operand(ball, b, "b")
    v = alpha * a + beta * b
    if ball.contains(alpha * a) and ball.contains(beta * b) and ball.contains(v):
        return PartialValue.of(v)
    return PartialValue.undefined()


def scalar_mul(ball: Ball, alpha: float, a: np.ndarray) -> PartialValue:
    """alpha a, defined iff the scaled vector stays in the carrier."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    _require_operand(ball, a, "a")
    v = alpha * a
    return PartialValue.of(v) if ball.contains(v) else PartialValue.undefined()


def _combine(ball: Ball, alpha, a, beta, b) -> PartialValue:
    if isinstance(ball, CautiousBall):
        return ovee(ball, alpha, a, beta, b)
    return oplus(ball, alpha, a, beta, b)


@dataclass
class LawResult:
    holds: bool
    checked: int
    counterexample: Optional[tuple] = None
    note: str = ""


@dataclass
class LawReport:
    """Per-law outcomes for both carriers plus the domain-containment check."""

    ambient: dict
    cautious: dict
    dom_contained: bool
    dom_checked: int
    dom_counterexample: Optional[tuple]
    properness_witness: Optional[tuple]
    scal2_reverse_gaps: int

    @property
    def all_hold(self) -> bool:
        return (
            all(r.holds for r in self.ambient.values())
            and all(r.holds for r in self.cautious.values())
            and self.dom_contained
        )


def _law_suite(ball: Ball, sample: list, grid, tol: float, cautious: bool) -> tuple[dict, int]:
    """Exhaustive law checks over the member sample; first counterexample kept."""
    laws: dict[str, LawResult] = {}
    zero = np.zeros_like(sample[0])
    has_zero = ball.contains(zero)

    def record(name, ok, count, witness, note=""):
        laws[name] = LawResult(holds=ok, checked=count, counterexample=witness, note=note)

    # weak* commutativity: a (+) b vs b (+) a
    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            count += 1
            if not weak_star_equal(
                _combine(ball, 1.0, a, 1.0, b), _combine(ball, 1.0, b, 1.0, a), tol
            ):
                ok, witness = False, (ia, ib)
                break
        if not ok:
            break
    record("weak_star_comm", ok, count, witness)

    # weak associativity: a (+) (b (+) c) vs (a (+) b) (+) c
    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            for ic, c in enumerate(sample):
                count += 1
                inner_r = _combine(ball, 1.0, b, 1.0, c)
                lhs = (
                    _combine(ball, 1.0, a, 1.0, inner_r.value)
                    if inner_r.defined
                    else PartialValue.undefined()
                )
                inner_l = _combine(ball, 1.0, a, 1.0, b)
                rhs = (
                    _combine(ball, 1.0, inner_l.value, 1.0, c)
                    if inner_l.defined
                    else PartialValue.undefined()
                )
                if not weak_equal(lhs, rhs, tol):
                    ok, witness = False, (ia, ib, ic)
                    break
            if not ok:
                break
        if not ok:
            break
    record("weak_assoc", ok, count, witness)

    # weak scal1: alpha (beta a) vs (alpha beta) a
    ok, count, witness = True, 0, None
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                count += 1
                inner = scalar_mul(ball, beta, a)
                lhs = (
                    scalar_mul(ball, alpha, inner.value)
                    if inner.defined
                    else PartialValue.undefined()
                )
                rhs = scalar_mul(ball, alpha * beta, a)
                if not weak_equal(lhs, rhs, tol):
                    ok, witness = False, (alpha, beta, ia)
                    break
            if not ok:
                break
        if not ok:
            break
    record("weak_scal1", ok, count, witness)

    # weak* scal2: alpha a (+) beta a vs (alpha + beta) a.  On the cautious
    # carrier only the combination-side-defined direction is provable (the
    # scalar side can be a member while the scaled parts left V), so there the
    # check is directional; the reverse gap is counted separately.
    ok, count, witness, rev_gaps = True, 0, None, 0
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                count += 1
                lhs = _combine(ball, alpha, a, beta, a)
                rhs = scalar_mul(ball, alpha + beta, a)
                if cautious:
                    if lhs.defined and not (rhs.defined and weak_equal(lhs, rhs, tol)):
                        if ok:
                            ok, witness = False, (alpha, beta, ia)
                    elif rhs.defined and not lhs.defined:
                        rev_gaps += 1
                else:
                    if not weak_star_equal(lhs, rhs, tol):
                        if ok:
                            ok, witness = False, (alpha, beta, ia)
    note = "directional: combination defined => scalar side defined" if cautious else ""
    record("weak_star_scal2", ok, count, witness, note)

    # weak* 0: a (+) 0 vs 0 (+) a, vacuous when 0 is not in the carrier
    ok, count, witness = True, 0, None
    if has_zero:
        for ia, a in enumerate(sample):
            count += 1
            if not weak_star_equal(
                _combine(ball, 1.0, a, 1.0, zero), _combine(ball, 1.0, zero, 1.0, a), tol
            ):
                ok, witness = False, (ia,)
                break
        record("weak_star_zero", ok, count, witness)
    else:
        record("weak_star_zero", True, 0, None, "vacuous: 0 outside the carrier")

    # inverse: a (+) b = 0 = a (+) c forces b = c
    ok, count, witness = True, 0, None
    for ia, a in enumerate(sample):
        for ib, b in enumerate(sample):
            ab = _combine(ball, 1.0, a, 1.0, b)
            if not (ab.defined and np.all(np.abs(ab.value) <= tol)):
                continue
            for ic, c in enumerate(sample):
                ac = _combine(ball, 1.0, a, 1.0, c)
                if not (ac.defined and np.all(np.abs(ac.value) <= tol)):
                    continue
                count += 1
                if not np.all(np.abs(b - c) <= 2.0 * tol):
                    ok, witness = False, (ia, ib, ic)
    record("inverse", ok, count, witness)

    laws["_scal2_reverse_gaps"] = LawResult(True, 0, None, str(rev_gaps))
    return laws, rev_gaps


def verify_laws(
    ambient: AmbientBall,
    cautious: CautiousBall,
    scalar_grid: Sequence[float] = DEFAULT_SCALAR_GRID,
    tol: float = DEFAULT_TOL,
) -> LawReport:
    """Exhaustively verify the law families on both carriers.

    The cautious ball's members double as the finite sample for the ambient
    checks.  Also verifies dom(cautious op) within dom(ambient op) over all
    scalar/member tuples and reports the first properness witness (a tuple
    defined ambiently but not cautiously), when one exists.
    """
    sample = cautious.member_points()
    if not sample:
        raise ValueError("cautious ball has no members to enumerate")
    grid = tuple(float(g) for g in scalar_grid)

    amb_laws, _ = _law_suite(ambient, sample, grid, tol, cautious=False)
    amb_laws.pop("_scal2_reverse_gaps")
    cau_laws, rev_gaps = _law_suite(cautious, sample, grid, tol, cautious=True)
    cau_laws.pop("_scal2_reverse_gaps")

    contained = True
    dom_count = 0
    dom_witness = None
    properness = None
    for alpha in grid:
        for beta in grid:
            for ia, a in enumerate(sample):
                for ib, b in enumerate(sample):
                    dom_count += 1
                    cautious_val = ovee(cautious, alpha, a, beta, b)
                    ambient_val = oplus(ambient, alpha, a, beta, b)
                    if cautious_val.defined and not ambient_val.defined:
                        if contained:
                            contained = False
                            dom_witness = (alpha, beta, ia, ib)
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
