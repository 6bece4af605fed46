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

import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ball_kmeans import BkmConfig, Dataset, Init, run
from .metrics import DistanceFn, euclidean, row_distances

__all__ = [
    "LabeledDataset",
    "GranularBall",
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
        labels = tuple(None if l is None else int(l) for l in self.labels)
        if len(labels) != self.points.n:
            raise ValueError("labels length must match the dataset size")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def build(cls, points, labels) -> "LabeledDataset":
        return cls(points=Dataset(np.asarray(points, dtype=float)), labels=tuple(labels))

    @property
    def n(self) -> int:
        return self.points.n

    def labeled_count(self) -> int:
        return sum(1 for l in self.labels if l is not None)


@dataclass(frozen=True)
class GranularBall:
    """Mean-center, mean-radius summary of a member index set."""

    center: np.ndarray
    radius: float
    members: tuple
    purity: Optional[float]
    majority_label: Optional[int]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GbConfig:
    purity_threshold: float
    min_points: int = 1
    split_k: int = 2
    max_depth: int = 32
    overlap_resolution: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.purity_threshold <= 1.0):
            raise ValueError("purity_threshold must be in (0, 1]")
        if self.min_points < 1:
            raise ValueError("min_points must be positive")
        if self.split_k < 2:
            raise ValueError("split_k must be at least 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


@dataclass
class GbResult:
    """Final balls (sorted by smallest member index; list position is the ball id)."""

    balls: list
    stop_reasons: list
    depths: list
    split_audit: list = field(default_factory=list)  # (parent members, children members, ok)
    unresolved_overlaps: list = field(default_factory=list)

    def labels(self) -> list:
        return [b.majority_label for b in self.balls]


def _label_stats(ds: LabeledDataset, members: Sequence[int]) -> tuple[Optional[float], Optional[int]]:
    labeled = [ds.labels[i] for i in members if ds.labels[i] is not None]
    if not labeled:
        return None, None
    counts = Counter(labeled)
    top = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))  # ties to smallest label
    return top[1] / len(labeled), top[0]


def make_ball(ds: LabeledDataset, members: Sequence[int], distance: DistanceFn = None) -> GranularBall:
    """Ball over the given member indices: mean center, mean distance radius."""
    mem = tuple(sorted(int(i) for i in members))
    if not mem:
        raise ValueError("cannot build a ball over an empty member set")
    fn = distance if distance is not None else euclidean()
    pts = ds.points.points[list(mem)]
    center = pts.mean(axis=0)
    dists = row_distances(fn, pts, center)
    pur, maj = _label_stats(ds, mem)
    return GranularBall(
        center=center,
        radius=float(dists.mean()),
        members=mem,
        purity=pur,
        majority_label=maj,
    )


def purity(ball: GranularBall, ds: LabeledDataset) -> Optional[float]:
    """Majority-label share among labeled members; None when no member is labeled."""
    return _label_stats(ds, ball.members)[0]


def _child_seed(base_seed: int, depth: int, min_member: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(depth, min_member))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def split(
    ds: LabeledDataset, ball: GranularBall, k: int, seed: int = 0, depth: int = 0
) -> list[GranularBall]:
    """Split a ball into k children by clustering its members.

    Children are granular balls over global indices, ordered by smallest
    member index; their member sets partition the parent's.
    """
    if ball.size < k:
        raise SplitRefused(f"ball of {ball.size} members cannot be split into {k} parts")
    sub = Dataset(ds.points.points[list(ball.members)])
    cfg = BkmConfig(k=k, seed=_child_seed(seed, depth, ball.members[0]), init=Init.PLUS_PLUS)
    clustering, _ = run(sub, cfg)
    members = np.asarray(ball.members, dtype=int)
    children = [
        make_ball(ds, members[np.flatnonzero(clustering.assignments == c)])
        for c in range(k)
    ]
    children.sort(key=lambda b: b.members[0])
    return children


def check_major_minor(major: GranularBall, minors: Sequence[GranularBall]) -> bool:
    """Strengthened decomposition condition over member index sets.

    The minor balls must union exactly to the major ball's members and be
    pairwise disjoint.
    """
    minor_sets = [frozenset(m.members) for m in minors]
    union = frozenset().union(*minor_sets) if minor_sets else frozenset()
    if union != frozenset(major.members):
        return False
    return sum(len(s) for s in minor_sets) == len(union)


def heterogeneous_overlap(b1: GranularBall, b2: GranularBall, distance: DistanceFn = None) -> bool:
    """Different majority labels and geometrically overlapping mean-radius balls."""
    if b1.majority_label is None or b2.majority_label is None:
        warnings.warn("heterogeneous_overlap on balls without a majority label", stacklevel=2)
        return False
    if b1.majority_label == b2.majority_label:
        return False
    fn = distance if distance is not None else euclidean()
    return float(row_distances(fn, b1.center[None], b2.center)[0]) < b1.radius + b2.radius


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
    """Worklist refinement from the whole-dataset ball down to stop-satisfying balls.

    A ball is final on sufficient purity, on reaching min_points or the depth
    cap, or when a split is refused; the reason is recorded per ball.  Final
    member sets partition the dataset indices.
    """
    if ds.labeled_count() == 0:
        raise ValueError("granular-ball generation needs at least one labeled point")
    work = deque([(make_ball(ds, range(ds.n)), 0)])
    final: list[tuple[GranularBall, str, int]] = []
    audit = []
    while work:
        ball, depth = work.popleft()
        reason = _stop_reason(ball, depth, cfg)
        if reason is not None:
            final.append((ball, reason, depth))
            continue
        try:
            children = split(ds, ball, cfg.split_k, seed=cfg.seed, depth=depth)
        except SplitRefused:
            final.append((ball, "split_refused", depth))
            continue
        audit.append(
            (ball.members, tuple(c.members for c in children), check_major_minor(ball, children))
        )
        for child in children:
            work.append((child, depth + 1))
    result = _result(final, audit)
    if cfg.overlap_resolution:
        result = resolve_overlaps(ds, result, cfg)
    return result


def resolve_overlaps(ds: LabeledDataset, result: GbResult, cfg: GbConfig) -> GbResult:
    """Split away heterogeneous overlaps while offenders remain splittable.

    The larger ball of the first offending pair (row-major over the balls
    sorted by smallest member) is split, the smaller as a fallback; pairs
    whose offenders are both stuck at min_points or the depth cap are
    reported unresolved.  The pair table is built once; a split adds only
    its children's rows.
    """
    entries = sorted(zip(result.balls, result.stop_reasons, result.depths), key=lambda e: e[0].members[0])
    audit = list(result.split_audit)
    unresolved = []

    def splittable(ball: GranularBall, depth: int) -> bool:
        return ball.size > max(cfg.min_points, cfg.split_k - 1) and depth < cfg.max_depth

    def offending(fresh: np.ndarray) -> np.ndarray:
        # rows `fresh` of the table; as in heterogeneous_overlap, unlabeled balls never offend
        balls = [b for b, _, _ in entries]
        labeled = np.array([b.majority_label is not None for b in balls])
        if len(balls) > 1 and not labeled.all():
            warnings.warn("overlap resolution over balls without a majority label", stacklevel=3)
        labels = np.array([b.majority_label or 0 for b in balls])
        centers = np.array([b.center for b in balls])
        radii = np.array([b.radius for b in balls])
        dist = np.array([row_distances(euclidean(), centers, centers[i]) for i in fresh])
        return labeled[fresh, None] & labeled & (labels[fresh, None] != labels) & (dist < radii[fresh, None] + radii)

    table = offending(np.arange(len(entries)))
    while True:
        # symmetric (euclidean is bitwise symmetric), False diagonal: the first True has i < j
        hits = np.flatnonzero(table)
        if not hits.size:
            break
        i, j = divmod(int(hits[0]), len(entries))
        first, second = (i, j) if entries[i][0].size >= entries[j][0].size else (j, i)
        target = next((t for t in (first, second) if splittable(entries[t][0], entries[t][2])), None)
        if target is None:
            unresolved.append((entries[i][0].members, entries[j][0].members))
            table[i, j] = table[j, i] = False
            continue
        ball, _, depth = entries.pop(target)
        children = split(ds, ball, cfg.split_k, seed=cfg.seed, depth=depth)
        audit.append((ball.members, tuple(c.members for c in children), check_major_minor(ball, children)))
        entries += [(c, _stop_reason(c, depth + 1, cfg) or "overlap_resolution", depth + 1) for c in children]
        table = np.pad(np.delete(np.delete(table, target, axis=0), target, axis=1), (0, len(children)))
        fresh = np.arange(len(entries) - len(children), len(entries))
        table[fresh] = offending(fresh)
        table[:, fresh] = table[fresh].T
        order = sorted(range(len(entries)), key=lambda t: entries[t][0].members[0])
        entries = [entries[t] for t in order]
        table = table[order][:, order]

    return _result(entries, audit, unresolved)


def classify(balls: Sequence[GranularBall], x, distance: DistanceFn = None) -> int:
    """Label of the ball minimizing distance-to-center minus radius.

    Ties go to the smaller radius, then the lower ball id (list position).
    """
    labeled = [(i, b) for i, b in enumerate(balls) if b.majority_label is not None]
    if not labeled:
        raise ValueError("classification needs at least one labeled ball")
    fn = distance if distance is not None else euclidean()
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    centers = np.array([b.center for _, b in labeled])
    radii = np.array([b.radius for _, b in labeled])
    score = row_distances(fn, np.broadcast_to(xv, centers.shape), centers) - radii
    return int(labeled[np.lexsort((radii, score))[0]][1].majority_label)  # stable: ties keep ball order
