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

from .metrics import DEFAULT_TOL, DistanceFn, _blocks, _first_true, _require_tol, euclidean, row_distances

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
        return bool(_inside(self, np.atleast_1d(np.asarray(x, dtype=float))[None])[0])


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
        members = tuple(int(i) for i in np.flatnonzero(_inside(ambient, v)))
        return cls(ambient=ambient, points=v, members=members)

    def locate(self, x: np.ndarray) -> Optional[int]:
        """Index of x in V by exact coordinate identity; None when absent."""
        return self._index.get(tuple(np.asarray(x, dtype=float).ravel().tolist()))

    def contains(self, x: np.ndarray) -> bool:
        return self.locate(x) in self._member_set

    def member_points(self) -> list[np.ndarray]:
        return [self.points[i] for i in self.members]


Ball = Union[AmbientBall, CautiousBall]


def _inside(ball: Ball, x: np.ndarray) -> np.ndarray:
    """Carrier membership of a stack of vectors, (..., d) -> (...)."""
    flat = x.reshape(-1, x.shape[-1])
    if isinstance(ball, CautiousBall):
        keys = map(tuple, flat.tolist())
        inside = np.array([ball._index.get(k) in ball._member_set for k in keys], dtype=bool)
    else:
        inside = row_distances(ball.distance, flat, ball.center) <= ball.radius
    return inside.reshape(x.shape[:-1])


def _scaled_sum(ball: Ball, alpha, a: np.ndarray, beta, b: np.ndarray) -> tuple:
    """alpha a + beta b over broadcast stacks of vectors, with its defined mask.

    On the cautious ball alpha a and beta b must be members too.
    """
    v = alpha * a + beta * b
    defined = _inside(ball, v)
    if isinstance(ball, CautiousBall):
        defined = defined & _inside(ball, alpha * a) & _inside(ball, beta * b)
    return v, defined


def _require_operand(ball: Ball, x: np.ndarray, label: str) -> None:
    if not ball.contains(x):
        raise BallDomainError(f"operand {label}={np.asarray(x).tolist()} lies outside the ball")


def _operation(ball: Ball, alpha: float, a, beta: float, b) -> PartialValue:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _require_operand(ball, a, "a")
    _require_operand(ball, b, "b")
    v, defined = _scaled_sum(ball, alpha, a[None], beta, b[None])
    return PartialValue.of(v[0]) if defined[0] else PartialValue.undefined()


def oplus(
    ball: AmbientBall, alpha: float, a: np.ndarray, beta: float, b: np.ndarray
) -> PartialValue:
    """alpha a + beta b on the ambient ball, defined iff the sum stays inside."""
    return _operation(ball, alpha, a, beta, b)


def ovee(
    ball: CautiousBall, alpha: float, a: np.ndarray, beta: float, b: np.ndarray
) -> PartialValue:
    """alpha a + beta b on the cautious ball.

    Defined iff alpha a, beta b and the sum are all members of the trace
    (hence elements of V, matched by exact coordinate identity).
    """
    return _operation(ball, alpha, a, beta, b)


def scalar_mul(ball: Ball, alpha: float, a: np.ndarray) -> PartialValue:
    """alpha a, defined iff the scaled vector stays in the carrier."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    _require_operand(ball, a, "a")
    v = alpha * a
    return PartialValue.of(v) if _inside(ball, v[None])[0] else PartialValue.undefined()


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


def _weak_violation(lhs: tuple, rhs: tuple, tol: float) -> np.ndarray:
    """Cases where ``weak_equal`` fails, for (value, defined) pairs of stacks."""
    return lhs[1] & rhs[1] & ~np.all(np.abs(lhs[0] - rhs[0]) <= tol, axis=-1)


def _star_violation(lhs: tuple, rhs: tuple, tol: float) -> np.ndarray:
    """Cases where ``weak_star_equal`` fails."""
    return (lhs[1] != rhs[1]) | _weak_violation(lhs, rhs, tol)


def _law(grid, axes: tuple, stop: bool = True, note: str = "") -> LawResult:
    """First violation of a case grid, given as for :func:`metrics._first_true`.

    ``checked`` counts the cases up to it when ``stop``, else the whole grid,
    which is then given whole; the witness maps its index through ``axes``
    (scalar grids or ranges).
    """
    first, checked = _first_true(grid)
    witness = None if first is None else tuple(ax[i] for ax, i in zip(axes, first))
    return LawResult(first is None, checked if stop else np.size(grid), witness, note)


def _law_suite(ball: Ball, s: np.ndarray, grid: tuple, tol: float) -> tuple[dict, int]:
    """Every law family as an array test over the member sample ``s`` (one per row).

    The families that stop at their first violation count the cases up to
    it, as the row-major loop over the case grid would.  Associativity and
    inverse go a block of first operands at a time: no (s, s, s) array is built.
    """
    idx = range(len(s))
    a, b = s[:, None], s[None, :]
    g = np.array(grid)
    alpha, beta = g[:, None, None, None], g[None, :, None, None]
    pair = _scaled_sum(ball, 1.0, a, 1.0, b)  # [ia, ib]: a (+) b

    def scaled(c, x):
        return c * x, _inside(ball, c * x)

    def assoc(r):  # [ia, ib, ic], ia in r: a (+) (b (+) c) vs (a (+) b) (+) c
        lhs_v, lhs_ok = _scaled_sum(ball, 1.0, s[r, None, None], 1.0, pair[0])
        rhs_v, rhs_ok = _scaled_sum(ball, 1.0, pair[0][r, :, None], 1.0, b)
        lhs, rhs = (lhs_v, lhs_ok & pair[1]), (rhs_v, rhs_ok & pair[1][r, :, None])
        return _weak_violation(lhs, rhs, tol)

    swapped = _scaled_sum(ball, 1.0, b, 1.0, a)  # [ia, ib]: b (+) a
    laws = {"weak_star_comm": _law(_star_violation(pair, swapped, tol), (idx, idx))}
    blocks = _blocks(len(s), len(s) ** 2)
    laws["weak_assoc"] = _law(map(assoc, blocks), (idx, idx, idx))

    # weak scal1: alpha (beta a) vs (alpha beta) a
    inner_v, inner_ok = scaled(g[:, None, None], s)
    lhs_v, lhs_ok = scaled(alpha, inner_v)
    rhs = scaled((g[:, None] * g[None, :])[:, :, None, None], s)
    lhs = (lhs_v, lhs_ok & inner_ok)
    laws["weak_scal1"] = _law(_weak_violation(lhs, rhs, tol), (grid, grid, idx))

    # weak* scal2: alpha a (+) beta a vs (alpha + beta) a.  On the cautious
    # carrier only the combination-side-defined direction is provable (the
    # scalar side can be a member while the scaled parts left V), so there the
    # check is directional; the reverse gap is counted separately.
    lhs, rhs = _scaled_sum(ball, alpha, s, beta, s), scaled(alpha + beta, s)
    if isinstance(ball, CautiousBall):
        viol = (lhs[1] & ~rhs[1]) | _weak_violation(lhs, rhs, tol)
        rev_gaps = int(np.sum(rhs[1] & ~lhs[1]))
        note = "directional: combination defined => scalar side defined"
    else:
        viol, rev_gaps, note = _star_violation(lhs, rhs, tol), 0, ""
    laws["weak_star_scal2"] = _law(viol, (grid, grid, idx), stop=False, note=note)

    # weak* 0: a (+) 0 vs 0 (+) a, vacuous when 0 is not in the carrier
    zero = np.zeros_like(s[0])
    if ball.contains(zero):
        lhs, rhs = _scaled_sum(ball, 1.0, s, 1.0, zero), _scaled_sum(ball, 1.0, zero, 1.0, s)
        laws["weak_star_zero"] = _law(_star_violation(lhs, rhs, tol), (idx,))
    else:
        laws["weak_star_zero"] = LawResult(True, 0, None, "vacuous: 0 outside the carrier")

    # inverse: a (+) b = 0 = a (+) c forces b = c; checked counts every such (a, b, c)
    null = pair[1] & np.all(np.abs(pair[0]) <= tol, axis=-1)
    near = np.all(np.abs(a - b) <= 2.0 * tol, axis=-1)
    cases = (null[r, :, None] & null[r, None, :] & ~near for r in blocks)  # [ia, ib, ic]
    laws["inverse"] = _law(cases, (idx, idx, idx))
    laws["inverse"].checked = int(np.sum(null.sum(axis=1) ** 2))
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
    if not cautious.members:
        raise ValueError("cautious ball has no members to enumerate")
    _require_tol(tol)
    s = np.array(cautious.member_points(), dtype=float)
    grid = tuple(float(g) for g in scalar_grid)
    if not grid:
        raise ValueError("scalar_grid is empty: no scalars to enumerate")
    for ball in (ambient, cautious):
        # member 0 is first met as operand a, every later member as operand b
        outside, _ = _first_true(~_inside(ball, s))
        if outside is not None:
            _require_operand(ball, s[outside[0]], "a" if outside == (0,) else "b")

    amb_laws, _ = _law_suite(ambient, s, grid, tol)
    cau_laws, rev_gaps = _law_suite(cautious, s, grid, tol)

    # dom(cautious op) within dom(ambient op), one (alpha, beta) block at a time
    cau, amb = (
        np.array([_scaled_sum(ball, al, s[:, None], be, s[None, :])[1] for al in grid for be in grid])
        .reshape(len(grid), len(grid), len(s), len(s))
        for ball in (cautious, ambient)
    )
    axes = (grid, grid, range(len(s)), range(len(s)))
    dom = _law(cau & ~amb, axes, stop=False)
    return LawReport(
        ambient=amb_laws,
        cautious=cau_laws,
        dom_contained=dom.holds,
        dom_checked=dom.checked,
        dom_counterexample=dom.counterexample,
        properness_witness=_law(amb & ~cau, axes).counterexample,
        scal2_reverse_gaps=rev_gaps,
    )
