"""Purity-driven granular-ball generation and classification.

A granular ball summarizes a member set by its mean center and *mean* member
distance (not the max-radius ball the clustering module uses).  Generation
refines the whole-dataset ball by splitting impure balls with the exact
clustering routine until every ball meets a stop predicate; member index
sets always partition the dataset, and each executed split is audited
against the major/minor condition (children union to the parent and are
pairwise disjoint).
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .ball_kmeans import BkmConfig, Dataset, Init, RunStats, _centers_of, _cluster_groups, _integer
from .metrics import DistanceFn, _blocks, _pairwise, euclidean, row_distances

__all__ = [
    "LabeledDataset",
    "GranularBall",
    "BallSet",
    "GbConfig",
    "GbResult",
    "SplitRefused",
    "make_ball",
    "purity",
    "split",
    "generate",
    "check_major_minor",
    "heterogeneous_overlap",
    "resolve_overlaps",
    "classify",
]


class SplitRefused(RuntimeError):
    """A ball could not be split (too few members for the requested parts)."""


@dataclass(frozen=True)
class LabeledDataset:
    """Dataset with optional integer class labels (None = unlabeled)."""

    points: Dataset
    labels: tuple

    def __post_init__(self):
        labels = tuple(l if l is None or type(l) is int else _integer(l, "label") for l in self.labels)
        if len(labels) != self.points.n:
            raise ValueError("labels length must match the dataset size")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def build(cls, points, labels) -> "LabeledDataset":
        return cls(points=Dataset(np.asarray(points, dtype=float)), labels=tuple(labels))

    @property
    def n(self) -> int:
        return self.points.n

    @cached_property
    def _label_ranks(self) -> tuple[np.ndarray, tuple]:
        """Each point's rank among the distinct labels (-1 where unlabeled), and those labels ascending."""
        values = tuple(sorted({l for l in self.labels if l is not None}))
        rank = {l: r for r, l in enumerate(values)}
        return np.array([rank.get(l, -1) for l in self.labels], dtype=np.intp), values


@dataclass(frozen=True)
class GranularBall:
    """Mean-center, mean-radius summary of a member index set.

    Two balls are equal when their members, center bytes, radius, purity and
    majority label are.
    """

    center: np.ndarray
    radius: float
    members: tuple
    purity: Optional[float]
    majority_label: Optional[int]

    @property
    def size(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GranularBall):
            return NotImplemented
        return (self.members, self.center.tobytes(), self.radius, self.purity, self.majority_label) == (
            other.members, other.center.tobytes(), other.radius, other.purity, other.majority_label
        )


def _arrays(balls: Sequence[GranularBall]) -> tuple:
    """Centers (B, d), radii, majority labels (object array, None where unlabeled), labeled mask
    and smallest members: a BallSet's own arrays, or one packing of any other sequence of balls."""
    if isinstance(balls, BallSet):
        return balls.centers, balls.radii, balls.labels, balls.labeled, balls.first
    labels = np.array([b.majority_label for b in balls], dtype=object)
    centers = np.array([b.center for b in balls], dtype=float)
    radii = np.array([b.radius for b in balls], dtype=float)
    return centers, radii, labels, labels != None, np.array([b.members[0] for b in balls])


class BallSet(Sequence):
    """Immutable sequence of granular balls, packed once into read-only arrays.

    ``centers`` (B, d), ``radii``, ``labels`` (majority labels, None where
    unlabeled), ``labeled`` and ``first`` (smallest members) follow the ball
    order, and each ball's ``center`` is a row of ``centers``.  A slice is a
    plain list of balls.
    """

    def __init__(self, balls: Iterable[GranularBall]):
        balls = list(balls)
        arrays = _arrays(balls)
        for a in arrays:
            a.flags.writeable = False
        self.centers, self.radii, self.labels, self.labeled, self.first = arrays
        self._balls = tuple(
            GranularBall(c, b.radius, b.members, b.purity, b.majority_label) for c, b in zip(self.centers, balls)
        )

    def __len__(self) -> int:
        return len(self._balls)

    def __getitem__(self, i):
        return list(self._balls[i]) if isinstance(i, slice) else self._balls[i]

    def __repr__(self) -> str:
        return f"BallSet({list(self._balls)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BallSet):
            return NotImplemented
        return self._balls == other._balls


@dataclass(frozen=True)
class GbConfig:
    purity_threshold: float
    min_points: int = 1
    split_k: int = 2
    max_depth: int = 32
    overlap_resolution: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("min_points", "split_k", "max_depth", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.purity_threshold, (bool, np.bool_)) or not (0.0 < self.purity_threshold <= 1.0):
            raise ValueError(f"purity_threshold must be in (0, 1], got {self.purity_threshold!r}")
        if self.min_points < 1:
            raise ValueError("min_points must be positive")
        if self.split_k < 2:
            raise ValueError("split_k must be at least 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


@dataclass
class GbResult:
    """Final balls (sorted by smallest member index; sequence position is the ball id).

    ``balls`` is packed into a BallSet when the result is built.
    """

    balls: Sequence[GranularBall]
    stop_reasons: list
    depths: list
    split_audit: list = field(default_factory=list)  # (parent members, children members, ok)
    unresolved_overlaps: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.balls, BallSet):
            self.balls = BallSet(self.balls)


def _balls(ds: LabeledDataset, idx: np.ndarray, assign: np.ndarray, k: int, fn: DistanceFn) -> list[GranularBall]:
    """The k balls of the rows ``idx`` grouped by ``assign`` (ids 0..k-1, none empty), members in ``idx`` order:
    mean center (``_centers_of``), mean member distance from one row-kernel call as radius, and the majority
    label of the labeled members, ties to the smallest, with its share as purity (both None if none is labeled)."""
    x = ds.points.points[idx]
    centers, order, cuts = _centers_of(x, assign, k)
    sizes, members = np.diff(cuts), idx[order]
    dist = row_distances(fn, x[order], np.repeat(centers, sizes, axis=0))
    ranks, values = ds._label_ranks
    rank, width = ranks[members], len(values) + 1
    pairs, counts = np.unique((np.repeat(np.arange(k), sizes) * width + rank)[rank >= 0], return_counts=True)
    owner, label = np.divmod(pairs, width)  # (ball, label rank) pairs ascending
    labeled, starts = np.unique(owner, return_index=True)  # the labeled balls and their first pairs
    top = np.lexsort((-counts, owner))[starts]  # stable: each ball's first maximal count, its smallest label's
    stats = zip(labeled.tolist(), counts[top].tolist(), np.add.reduceat(counts, starts).tolist(), label[top].tolist())
    majority = {g: (count / total, values[r]) for g, count, total, r in stats}
    members = members.tolist()
    return [
        GranularBall(centers[g], float(dist[a:b].mean()), tuple(members[a:b]), *majority.get(g, (None, None)))
        for g, (a, b) in enumerate(zip(cuts, cuts[1:]))
    ]


def make_ball(ds: LabeledDataset, members: Sequence[int], distance: DistanceFn = None) -> GranularBall:
    """Ball over the given member indices: mean center, mean distance radius."""
    mem = tuple(sorted(i if type(i) is int else _integer(i, "member index") for i in members))
    if not mem:
        raise ValueError("cannot build a ball over an empty member set")
    if mem[0] < 0 or mem[-1] >= ds.n or len(set(mem)) < len(mem):
        bad = next(i for i, j in zip(mem, mem[1:] + (ds.n,)) if i < 0 or i >= j)  # sorted: a repeat is not below its successor
        raise ValueError(f"member index {bad} is repeated or outside 0..{ds.n - 1}")
    return _balls(ds, np.array(mem), np.zeros(len(mem), dtype=np.intp), 1, distance if distance is not None else euclidean())[0]


def purity(ball: GranularBall, ds: LabeledDataset) -> Optional[float]:
    """Majority-label share among labeled members; None when no member is labeled."""
    return make_ball(ds, ball.members).purity


def _child_seed(base_seed: int, depth: int, min_member: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(depth, min_member))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def split(ds: LabeledDataset, ball: GranularBall, k: int, seed: int = 0, depth: int = 0) -> list[GranularBall]:
    """Split a ball into k children by clustering its members.

    Children are granular balls over global indices, ordered by smallest
    member index; their member sets partition the parent's.
    """
    if ball.size < k:
        raise SplitRefused(f"ball of {ball.size} members cannot be split into {k} parts")
    return _split_frontier(ds, [ball], k, seed, depth)[0]


def _split_frontier(ds: LabeledDataset, balls: Sequence[GranularBall], k: int, seed: int, depth: int) -> list:
    """The ``split`` children of each ball (of at least k members) at one depth, from one clustering pass.

    Each ball is one group of the pass, ++-seeded from its depth and smallest
    member, so it gets the partition ``run`` gives its members alone.
    """
    idx = np.concatenate([np.asarray(b.members, dtype=np.intp) for b in balls])
    bounds = np.cumsum([0] + [b.size for b in balls]).tolist()
    cfg = BkmConfig(k=k, init=Init.PLUS_PLUS)
    seeds = [_child_seed(seed, depth, b.members[0]) for b in balls]
    assign, _, _, _ = _cluster_groups(ds.points.points[idx], bounds, seeds, cfg, RunStats())
    children = _balls(ds, idx, assign, len(balls) * k, cfg.distance)  # members ascending within each
    return [sorted(children[g * k : g * k + k], key=lambda c: c.members[0]) for g in range(len(balls))]


def check_major_minor(major: GranularBall, minors: Sequence[GranularBall]) -> bool:
    """Strengthened decomposition condition over member index sets.

    The minor balls must union exactly to the major ball's members and be
    pairwise disjoint.
    """
    minor_sets = [set(m.members) for m in minors]
    union = set().union(*minor_sets)
    return union == set(major.members) and sum(map(len, minor_sets)) == len(union)


def _offending(fn: DistanceFn, packed: tuple, rows, cols) -> np.ndarray:
    """Heterogeneous overlaps between balls ``rows`` and ``cols`` of ``_arrays`` output, as a mask:
    both labeled, labels differ, and fn(column center, row center) < the radius sum."""
    centers, radii, labels, labeled, _ = packed
    dist = _pairwise(fn, centers[cols], centers[rows]).T
    return labeled[rows, None] & labeled[cols] & (labels[rows, None] != labels[cols]) & (dist < radii[rows, None] + radii[cols])


def heterogeneous_overlap(b1: GranularBall, b2: GranularBall, distance: DistanceFn = None) -> bool:
    """Different majority labels and geometrically overlapping mean-radius balls."""
    if b1.majority_label is None or b2.majority_label is None:
        warnings.warn("heterogeneous_overlap on balls without a majority label", stacklevel=2)
        return False
    fn = distance if distance is not None else euclidean()
    return bool(_offending(fn, _arrays([b2, b1]), [0], [1])[0, 0])


def _stop_reason(ball: GranularBall, depth: int, cfg: GbConfig) -> Optional[str]:
    if ball.purity is not None and ball.purity >= cfg.purity_threshold:
        return "purity"
    if ball.size <= cfg.min_points:
        return "min_points"
    if depth >= cfg.max_depth:
        return "max_depth"
    return None


def _result(entries: list, audit: list, unresolved: Sequence = ()) -> GbResult:
    """GbResult over (ball, stop reason, depth) entries, sorted by smallest member."""
    entries = sorted(entries, key=lambda e: e[0].members[0])
    return GbResult(
        balls=[b for b, _, _ in entries],
        stop_reasons=[r for _, r, _ in entries],
        depths=[d for _, _, d in entries],
        split_audit=audit,
        unresolved_overlaps=sorted(unresolved),
    )


def generate(ds: LabeledDataset, cfg: GbConfig) -> GbResult:
    """Breadth-first refinement from the whole-dataset ball down to stop-satisfying balls.

    A ball is final on sufficient purity, on reaching min_points or the depth
    cap, or when a split is refused (fewer than ``split_k`` members); the
    reason is recorded per ball.  Final member sets partition the dataset
    indices.  The balls of one depth are split in one clustering pass, each
    with its own seed, into the children ``split`` gives it alone.
    """
    if all(l is None for l in ds.labels):
        raise ValueError("granular-ball generation needs at least one labeled point")
    frontier = [make_ball(ds, range(ds.n))]
    final: list[tuple[GranularBall, str, int]] = []
    audit = []
    for depth in itertools.count():
        todo = []
        for ball in frontier:
            reason = _stop_reason(ball, depth, cfg)
            if reason is None and ball.size < cfg.split_k:
                reason = "split_refused"
            if reason is None:
                todo.append(ball)
            else:
                final.append((ball, reason, depth))
        if not todo:
            break
        frontier = []
        for ball, children in zip(todo, _split_frontier(ds, todo, cfg.split_k, cfg.seed, depth)):
            audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
            frontier += children
    result = _result(final, audit)
    if cfg.overlap_resolution:
        result = resolve_overlaps(ds, result, cfg)
    return result


def resolve_overlaps(ds: LabeledDataset, result: GbResult, cfg: GbConfig) -> GbResult:
    """Split away heterogeneous overlaps while offenders remain splittable.

    The larger ball of the first offending pair (row-major over the balls
    sorted by smallest member) is split, the smaller as a fallback; pairs
    whose offenders are both stuck at min_points or the depth cap are
    reported unresolved.  Balls live in slots: a split ball's slot takes its
    first child and the other children are appended, and only those slots'
    rows and columns of the offending-pair table are recomputed.
    """
    entries = list(zip(result.balls, result.stop_reasons, result.depths))
    packed = _arrays(result.balls)  # slot arrays; packed[4] is the smallest member of each slot
    table = np.zeros((len(entries),) * 2, dtype=bool)  # slot capacity, doubled when outgrown
    audit, unresolved = list(result.split_audit), []

    def splittable(t: int) -> bool:
        return entries[t][0].size > max(cfg.min_points, cfg.split_k - 1) and entries[t][2] < cfg.max_depth

    def refresh(slots) -> None:
        # as in heterogeneous_overlap, unlabeled balls never offend
        n = len(entries)
        if n > 1 and not packed[3].all():
            warnings.warn("overlap resolution over balls without a majority label", stacklevel=3)
        table[slots, :n] = _offending(euclidean(), packed, slots, slice(0, n))
        table[:n, slots] = table[slots, :n].T

    refresh(np.arange(len(entries)))
    while True:
        n = len(entries)
        hit = table[:n, :n].any(axis=1)
        if not hit.any():
            break
        # the table is symmetric (euclidean is bitwise symmetric), so the hit slot with the smallest
        # member and its partner with the smallest member are the first pair in sorted order
        i = int(np.argmin(np.where(hit, packed[4], ds.n)))
        j = int(np.argmin(np.where(table[i, :n], packed[4], ds.n)))
        bigger, smaller = (i, j) if entries[i][0].size >= entries[j][0].size else (j, i)
        target = next((t for t in (bigger, smaller) if splittable(t)), None)
        if target is None:
            unresolved.append((entries[i][0].members, entries[j][0].members))
            table[i, j] = table[j, i] = False
            continue
        ball, _, depth = entries[target]
        children = split(ds, ball, cfg.split_k, seed=cfg.seed, depth=depth)
        audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
        # the split ball's slot takes the first child and the other children are appended
        fresh = [(c, _stop_reason(c, depth + 1, cfg) or "overlap_resolution", depth + 1) for c in children]
        entries[target], entries[n:] = fresh[0], fresh[1:]
        kids = _arrays(children)
        packed = [np.concatenate([a[:target], v[:1], a[target + 1 :], v[1:]]) for a, v in zip(packed, kids)]
        if len(entries) > len(table):
            table = np.pad(table, (0, len(entries)))
        refresh(np.array([target, *range(n, len(entries))]))

    return _result(entries, audit, unresolved)


def classify(balls: Sequence[GranularBall], x, distance: DistanceFn = None) -> int | np.ndarray:
    """Label of the labeled ball minimizing distance-to-center minus radius.

    ``x`` is one point of the balls' dimension d (a scalar when d = 1), giving
    an int, or an (m, d) array, giving an int array of m labels, scored in
    row chunks.  Distances are measured from the point, ``distance(x,
    center)``.  Score ties go to the smaller radius, then the lower ball id
    (sequence position).  Points of another dimension, with a non-finite
    coordinate or of more than two array dimensions are refused.
    """
    centers, radii, labels, labeled, _ = _arrays(balls)
    if not labeled.any():
        raise ValueError("classification needs at least one labeled ball")
    xv = np.asarray(x, dtype=float)
    pts = np.atleast_2d(xv)
    if xv.ndim > 2 or pts.shape[1] != centers.shape[1]:
        raise ValueError(f"points must be of the balls' dimension {centers.shape[1]}, got shape {xv.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    fn = distance if distance is not None else euclidean()
    win = np.empty(len(pts), dtype=np.intp)
    for rows in _blocks(len(pts), 8 * centers.size):  # the chunks of _pairwise's repeated rows: one kernel call each
        score = _pairwise(fn, pts[rows], centers) - radii
        # the least labeled score, NaN ranking last; a point whose labeled scores are all NaN ties them all
        best = labeled & (score == np.fmin.reduce(score, axis=1, keepdims=True, where=labeled, initial=np.inf))
        best |= labeled & ~best.any(axis=1, keepdims=True)
        tied = np.where(best, radii, np.inf)  # argmax: the first, lowest-id, best ball of least radius
        win[rows] = np.argmax(best & (tied == np.fmin.reduce(tied, axis=1, keepdims=True)), axis=1)
    found = labels[win]
    return int(found[0]) if xv.ndim < 2 else found.astype(int)
