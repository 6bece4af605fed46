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
    ``v[i]``; it must agree bit-for-bit with ``eval`` applied row by row.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], float]
    declared_kind: Kind = Kind.GENERAL
    declared_k: Optional[float] = None
    rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.eval(a, b)


def _euclidean_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    diff = m - v
    return np.sqrt(np.sum(diff * diff, axis=1))


def euclidean() -> DistanceFn:
    return DistanceFn(
        name="euclidean",
        eval=lambda a, b: float(math.sqrt(np.sum((a - b) * (a - b)))),
        declared_kind=Kind.METRIC,
        rows=_euclidean_rows,
    )


def squared_euclidean() -> DistanceFn:
    # Violates the triangle inequality; identity and symmetry still hold.
    return DistanceFn(
        name="sqeuclidean",
        eval=lambda a, b: float(np.sum((a - b) * (a - b))),
        declared_kind=Kind.SEMIMETRIC,
        rows=lambda m, v: np.sum((m - v) * (m - v), axis=1),
    )


def manhattan() -> DistanceFn:
    return DistanceFn(
        name="manhattan",
        eval=lambda a, b: float(np.sum(np.abs(a - b))),
        declared_kind=Kind.METRIC,
        rows=lambda m, v: np.sum(np.abs(m - v), axis=1),
    )


def chebyshev() -> DistanceFn:
    return DistanceFn(
        name="chebyshev",
        eval=lambda a, b: float(np.max(np.abs(a - b))),
        declared_kind=Kind.METRIC,
        rows=lambda m, v: np.max(np.abs(m - v), axis=1),
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
        rows=lambda m, v: np.sum(np.maximum(m - v, 0.0), axis=1),
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
    if a.ndim != 1:
        raise ValueError(f"points must be scalars or 1-D vectors, got shape {a.shape}")
    return a


def _checked_matrix(fn: DistanceFn, h: Sequence, f: Sequence) -> np.ndarray:
    """The (|h|, |f|) matrix of fn(h_i, f_j), one row-kernel call per column.  Refuses points of
    different dimension, then the first negative or non-finite value in row-major order."""
    hp = [_as_point(p) for p in h]
    fp = [_as_point(p) for p in f]
    odd = next((p for p in hp + fp if p.shape != hp[0].shape), None)
    if odd is not None:
        raise ValueError(f"points of different dimension: shapes {hp[0].shape} and {odd.shape}")
    hm = np.array(hp)
    dmat = np.empty((len(hp), len(fp)))
    for j, b in enumerate(fp):
        dmat[:, j] = row_distances(fn, hm, b)
    bad = np.argwhere(~np.isfinite(dmat) | (dmat < 0.0))
    if bad.size:
        i, j = map(int, bad[0])
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
    """
    if len(sample) == 0:
        raise ValueError("sample must be non-empty")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    pts = [_as_point(p) for p in sample]
    dmat = _checked_matrix(fn, pts, pts)
    same = np.all(np.array(pts)[:, None, :] == np.array(pts)[None, :, :], axis=2)
    counterexamples: dict = {}

    def _pt(i):
        p = pts[i]
        return float(p[0]) if p.size == 1 else tuple(p.tolist())

    # pseudo-identity: sigma(a, b) = 0 (within tol) forces a = b
    pseudo = True
    bad = np.argwhere(~same & (dmat <= tol))
    if bad.size:
        i, j = map(int, bad[0])
        pseudo = False
        counterexamples["pseudo_identity"] = (_pt(i), _pt(j), float(dmat[i, j]))

    # identity adds the exact diagonal condition sigma(a, a) = 0
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

    # sums[i, j, c] = sigma(a_i, a_c) + sigma(a_c, a_j)
    sums = dmat[:, None, :] + dmat.T[None, :, :]
    tri_viol = dmat[:, :, None] > sums + tol
    triangle = not tri_viol.any()
    if not triangle:
        i, j, c = map(int, np.argwhere(tri_viol)[0])
        counterexamples["triangle"] = (
            _pt(i), _pt(j), _pt(c), float(dmat[i, j]), float(dmat[i, c] + dmat[c, j]),
        )

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
