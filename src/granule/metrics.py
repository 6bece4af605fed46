"""Generalized distance functions and finite set-distance utilities.

A *distance function* here is anything nonnegative that vanishes on the
diagonal.  Metric-like properties (symmetry, triangle inequality, ...) are
treated as empirical claims to be falsified on finite samples rather than
assumed, so exotic dissimilarities from ML practice fit the same interface
as honest metrics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Kind",
    "DistanceFn",
    "AxiomReport",
    "MetricEvaluationError",
    "EmptySetError",
    "euclidean",
    "squared_euclidean",
    "manhattan",
    "chebyshev",
    "forward_gap",
    "NAMED_DISTANCES",
    "row_distances",
    "classify_distance",
    "point_set_distance",
    "hausdorff_distance",
    "infimal_distance",
]

DEFAULT_TOL = 1e-9


class Kind(enum.Enum):
    """Declared class of a distance function."""

    GENERAL = "general"
    PSEUDOMETRIC = "pseudometric"
    SEMIMETRIC = "semimetric"
    METRIC = "metric"
    QUASIMETRIC = "quasimetric"
    WEAK_QUASIMETRIC = "weak-quasimetric"


class MetricEvaluationError(ValueError):
    """A distance evaluation produced a negative or non-finite value."""


class EmptySetError(ValueError):
    """A set distance was requested against an empty set."""


@dataclass(frozen=True)
class DistanceFn:
    """A distance function together with its declared classification.

    ``eval`` maps a pair of equal-length 1-D vectors to a nonnegative float.
    ``rows``, when present, is a vectorized form mapping a (m, d) matrix and a
    (d,) or (m, d) ``v`` to the (m,) row distances, row i against ``v`` or
    ``v[i]``; it must agree bit-for-bit with ``eval`` applied row by row.  The
    named kernels reduce rows of at most 8 coordinates one column at a time,
    in numpy's own order (``_row_reduce``): ``rows`` still equals ``eval`` bit
    for bit, and the result does not depend on the operands' memory layout.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], float]
    declared_kind: Kind = Kind.GENERAL
    declared_k: Optional[float] = None
    rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.eval(a, b)


def _row_reduce(ufunc: np.ufunc, t: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the rows of a C-ordered copy of the (m, d) ``t``, bit for bit (a row where two
    different nans meet is nan, either one).  Up to d = 8 coordinates of float64 it goes one (m,) column at a
    time in numpy's own order, far faster than numpy's per-row loop over a short axis: from the identity (+0.0
    for a sum), left to right below 8, numpy's 8-accumulator tree at 8."""
    d = t.shape[1]
    if t.dtype != np.float64 or not 1 <= d <= 8:
        return ufunc.reduce(np.ascontiguousarray(t), axis=1)
    cols = [t[:, j] for j in range(d)]
    if ufunc.identity is not None:
        cols[0] = ufunc(cols[0], ufunc.identity)
    else:  # numpy's maximum of a row that starts at a nan is the plain nan
        cols[0] = np.where((d > 1) & np.isnan(cols[0]), np.nan, cols[0])
    if d == 8:  # ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))
        while len(cols) > 1:
            cols = [ufunc(a, b) for a, b in zip(cols[::2], cols[1::2])]
    for col in cols[1:]:
        ufunc(cols[0], col, out=cols[0])
    return cols[0]


def _sqeuclidean_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    diff = m - v
    return _row_reduce(np.add, diff * diff)


def euclidean() -> DistanceFn:
    return DistanceFn(
        name="euclidean",
        eval=lambda a, b: float(math.sqrt(np.sum((a - b) * (a - b)))),
        declared_kind=Kind.METRIC,
        rows=lambda m, v: np.sqrt(_sqeuclidean_rows(m, v)),
    )


def squared_euclidean() -> DistanceFn:
    # Violates the triangle inequality; identity and symmetry still hold.
    return DistanceFn(
        name="sqeuclidean",
        eval=lambda a, b: float(np.sum((a - b) * (a - b))),
        declared_kind=Kind.SEMIMETRIC,
        rows=_sqeuclidean_rows,
    )


def manhattan() -> DistanceFn:
    return DistanceFn(
        name="manhattan",
        eval=lambda a, b: float(np.sum(np.abs(a - b))),
        declared_kind=Kind.METRIC,
        rows=lambda m, v: _row_reduce(np.add, np.abs(m - v)),
    )


def chebyshev() -> DistanceFn:
    return DistanceFn(
        name="chebyshev",
        eval=lambda a, b: float(np.max(np.abs(a - b))),
        declared_kind=Kind.METRIC,
        rows=lambda m, v: _row_reduce(np.maximum, np.abs(m - v)),
    )


def forward_gap() -> DistanceFn:
    """Asymmetric coordinate-wise forward gap, sum of max(a_i - b_i, 0).

    Satisfies the triangle inequality but neither symmetry nor the
    zero-implies-equal direction of identity.
    """
    return DistanceFn(
        name="forward-gap",
        eval=lambda a, b: float(np.sum(np.maximum(a - b, 0.0))),
        declared_kind=Kind.QUASIMETRIC,
        rows=lambda m, v: _row_reduce(np.add, np.maximum(m - v, 0.0)),
    )


NAMED_DISTANCES: dict[str, Callable[[], DistanceFn]] = {
    "euclidean": euclidean,
    "sqeuclidean": squared_euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
    "forward-gap": forward_gap,
}


@dataclass
class AxiomReport:
    """Outcome of sample-based distance classification.

    Every flag means "not falsified on the supplied sample", never a proof.
    ``k_triangle`` is a pair (holds, k): at the declared k when one was
    declared, otherwise the largest sample-consistent k (``inf`` when no
    triple constrains it).  ``witness`` is the first counterexample found in
    deterministic enumeration order; ``counterexamples`` keeps one witness per
    failed condition.
    """

    identity: bool
    symmetry: bool
    triangle: bool
    k_triangle: tuple[bool, float]
    pseudo_identity: bool
    witness: Optional[tuple] = None
    counterexamples: dict = field(default_factory=dict)

    @property
    def is_metric_on_sample(self) -> bool:
        return self.identity and self.symmetry and self.triangle


def row_distances(fn: DistanceFn, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i of ``m`` against ``v`` or ``v[i]``: ``fn.rows`` when present, else ``eval`` per row."""
    if fn.rows is not None:
        return fn.rows(m, v)
    return np.array([float(fn.eval(a, b)) for a, b in zip(m, np.broadcast_to(v, m.shape))])


def _as_point(p) -> np.ndarray:
    a = np.atleast_1d(np.asarray(p, dtype=float))
    if a.ndim != 1 or not a.size:
        raise ValueError(f"points must be scalars or non-empty 1-D vectors, got shape {a.shape}")
    return a


# about this many cases per block of a first-violation scan
_CHUNK_ENTRIES = 1 << 18


def _blocks(n: int, per_row: int) -> list[slice]:
    """Consecutive slices of a first axis of n rows, about ``_CHUNK_ENTRIES`` cases each."""
    rows = max(1, _CHUNK_ENTRIES // max(per_row, 1))
    return [slice(r, r + rows) for r in range(0, n, rows)]


def _pairwise(fn: DistanceFn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) matrix of fn(a_i, b_j), the one all-pairs builder: one row-kernel call per chunk
    of a's rows, row p len(b) + j pairing its point p with b_j.  A chunk's operands and temporaries (up to
    eight arrays of the repeated rows' size) together hold about ``_CHUNK_ENTRIES`` coordinates, in cache."""
    pairs = lambda c: row_distances(fn, c.repeat(len(b), axis=0), np.tile(b, (len(c), 1))).reshape(len(c), -1)
    blocks = _blocks(len(a), 8 * b.size)
    if len(blocks) == 1:
        return pairs(a)  # the kernel's own array, uncopied
    out = np.empty((len(a), len(b)))
    for rows in blocks:
        out[rows] = pairs(a[rows])
    return out


def _first_true(grid) -> tuple[Optional[tuple], int]:
    """The first True of a row-major case grid: the witness rule of every verifier.

    ``grid`` is a boolean array, or an iterable of consecutive blocks of one along its first
    axis, not consumed past the first True.  Returns the grid index of that True, or None, and
    the number of cases up to and including it, or all cases when there is none.
    """
    offset = checked = 0
    for block in (grid,) if isinstance(grid, np.ndarray) else grid:
        first = int(block.argmax())
        if block.flat[first]:
            idx = np.unravel_index(first, block.shape)
            return (offset + int(idx[0]), *map(int, idx[1:])), checked + first + 1
        offset, checked = offset + len(block), checked + block.size
    return None, checked


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _checked_matrix(fn: DistanceFn, h: Sequence, f: Sequence) -> np.ndarray:
    """The (|h|, |f|) matrix of fn(h_i, f_j) from ``_pairwise``.  Refuses points of different
    dimension, then the first negative or non-finite value in row-major order."""
    hp = [_as_point(p) for p in h]
    fp = [_as_point(p) for p in f]
    odd = next((p for p in hp + fp if p.shape != hp[0].shape), None)
    if odd is not None:
        raise ValueError(f"points of different dimension: shapes {hp[0].shape} and {odd.shape}")
    dmat = _pairwise(fn, np.array(hp), np.array(fp))
    bad, _ = _first_true(~np.isfinite(dmat) | (dmat < 0.0))
    if bad is not None:
        i, j = bad
        raise MetricEvaluationError(
            f"{fn.name} returned {float(dmat[i, j])!r} on pair ({hp[i].tolist()}, {fp[j].tolist()})"
        )
    return dmat


def classify_distance(
    fn: DistanceFn, sample: Sequence, tol: float = DEFAULT_TOL
) -> AxiomReport:
    """Check identity, symmetry, triangle, k-triangle and pseudo-identity on a sample.

    All pairs and ordered triples of the sample are enumerated; comparisons
    a <= b are taken as a <= b + tol, except sigma(a, a) = 0 which is exact.
    Triples go a block of first points at a time: no (s, s, s) array is built.
    """
    if len(sample) == 0:
        raise ValueError("sample must be non-empty")
    _require_tol(tol)
    pts = [_as_point(p) for p in sample]
    dmat = _checked_matrix(fn, pts, pts)
    same = np.all(np.array(pts)[:, None, :] == np.array(pts)[None, :, :], axis=2)
    blocks = _blocks(len(pts), 8 * len(pts) ** 2)  # a block's (rows, s, s) temporaries stay in cache
    counterexamples: dict = {}

    def _pt(i):
        p = pts[i]
        return float(p[0]) if p.size == 1 else tuple(p.tolist())

    def holds(name, cases, witness) -> bool:
        """True when ``cases`` has no True, else records ``witness`` of the first one."""
        idx, _ = _first_true(cases)
        if idx is not None:
            counterexamples[name] = witness(*idx)
        return idx is None

    def sums(r):  # [i, j, c] = sigma(a_i, a_c) + sigma(a_c, a_j), first points i in r
        return dmat[r, None, :] + dmat.T[None, :, :]

    def pair(i, j):
        return _pt(i), _pt(j), float(dmat[i, j])

    def triple_k(i, j, c):
        return _pt(i), _pt(j), _pt(c), k_used

    # pseudo-identity: sigma(a, b) = 0 (within tol) forces a = b; identity
    # adds the exact diagonal condition sigma(a, a) = 0
    pseudo = holds("pseudo_identity", ~same & (dmat <= tol), pair)
    diagonal = holds("identity", same & (dmat != 0.0), pair)
    identity = diagonal and pseudo
    if not pseudo:
        counterexamples.setdefault("identity", counterexamples["pseudo_identity"])
    symmetry = holds(
        "symmetry", np.triu(np.abs(dmat - dmat.T) > tol, k=1), lambda i, j: (*pair(i, j), float(dmat[j, i]))
    )
    triangle = holds(
        "triangle",
        (dmat[r, :, None] > sums(r) + tol for r in blocks),
        lambda i, j, c: (_pt(i), _pt(j), _pt(c), float(dmat[i, j]), float(dmat[i, c] + dmat[c, j])),
    )
    if fn.declared_kind is Kind.WEAK_QUASIMETRIC and fn.declared_k is not None:
        k_used = float(fn.declared_k)
        if not math.isfinite(k_used):
            raise ValueError(f"{fn.name} declares a non-finite k: {k_used!r}")
        k_holds = holds("k_triangle", (k_used * dmat[r, :, None] > sums(r) + tol for r in blocks), triple_k)
    else:
        def ratios(r):
            denom = np.where(dmat[r] > tol, dmat[r], np.inf)[:, :, None]
            return np.where(dmat[r, :, None] > tol, (sums(r) + tol) / denom, np.inf)

        # the witness pass runs only when the minimum falsifies
        k_used = float(min(ratios(r).min() for r in blocks))
        k_holds = k_used > 0.0 or holds("k_triangle", (ratios(r) == k_used for r in blocks), triple_k)

    order = ["identity", "symmetry", "triangle", "k_triangle", "pseudo_identity"]
    witness = next((counterexamples[n] for n in order if n in counterexamples), None)
    return AxiomReport(
        identity=identity,
        symmetry=symmetry,
        triangle=triangle,
        k_triangle=(k_holds, k_used),
        pseudo_identity=pseudo,
        witness=witness,
        counterexamples=counterexamples,
    )


def point_set_distance(fn: DistanceFn, x, h: Sequence) -> float:
    """Distance from point x to the finite set H, min over sigma(x, a)."""
    if len(h) == 0:
        raise EmptySetError("point-set distance against an empty set")
    return float(_checked_matrix(fn, [x], h).min())


def hausdorff_distance(fn: DistanceFn, h: Sequence, f: Sequence) -> float:
    """Hausdorff distance between finite sets, max of the two sup-inf terms."""
    if len(h) == 0 or len(f) == 0:
        raise EmptySetError("hausdorff distance requires non-empty sets")
    dmat = _checked_matrix(fn, h, f)
    return float(max(dmat.min(axis=1).max(), dmat.min(axis=0).max()))


def infimal_distance(fn: DistanceFn, h: Sequence, f: Sequence) -> float:
    """Infimal distance between finite sets, min over all cross pairs."""
    if len(h) == 0 or len(f) == 0:
        raise EmptySetError("infimal distance requires non-empty sets")
    return float(_checked_matrix(fn, h, f).min())
