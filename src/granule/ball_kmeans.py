"""Exact accelerated k-means over ball-shaped clusters.

Each cluster is carried as a ball (mean center, max member distance as
radius).  Per iteration the neighbor relation, stable region and annular
regions bound the candidate centers each point has to be compared against,
and a center-shift test prunes center-center distance computations, without
ever changing the result: ``run`` and the naive ``lloyd_run`` produce
identical partitions for the same seed.

Movement rule shared by both algorithms: a point keeps its current cluster
unless some center is strictly closer; among strictly closer centers the
minimum-distance one wins, exact ties broken by lowest cluster index.  (A
pure lowest-index rule over *all* centers would need information the pruned
algorithm provably never computes, and the candidate-set guarantees hold
exactly for strict improvement.)
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import DistanceFn, Kind, _pairwise, _sqeuclidean_rows, euclidean, row_distances

__all__ = [
    "Dataset",
    "BkmConfig",
    "RunStats",
    "Clustering",
    "Init",
    "ConfigError",
    "init_clusters",
    "prune_neighbor_check",
    "run",
    "lloyd_run",
]


class ConfigError(ValueError):
    """Invalid clustering configuration."""


def _integer(value, what: str, error: type = ValueError) -> int:
    """``value`` as an int, refusing a bool and any value that ``int()`` would change (0.7, "1", nan)."""
    try:
        if int(value) == value and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be an integer, got {value!r}")


class Init(enum.Enum):
    RANDOM_PARTITION = "random"
    PLUS_PLUS = "plusplus"


@dataclass(frozen=True)
class Dataset:
    """Fixed-dimension real vectors; the finite universe every module works over."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        if not np.isfinite(pts).all():
            raise ValueError("dataset coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class BkmConfig:
    k: int
    max_iter: int = 200
    seed: int = 0
    init: Init = Init.RANDOM_PARTITION
    distance: DistanceFn = field(default_factory=euclidean)

    def __post_init__(self):
        for name in ("k", "max_iter"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        if self.k < 1:
            raise ConfigError("k must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")


@dataclass
class RunStats:
    iterations: int = 0
    distance_computations: int = 0
    points_moved_per_iter: list = field(default_factory=list)
    prunings_fired: int = 0
    empty_cluster_repairs: int = 0
    neighbor_free_stable_clusters: int = 0
    # instrumented-mode violation counters; all must stay zero
    stable_violations: int = 0
    move_target_violations: int = 0
    pruning_violations: int = 0


@dataclass
class Clustering:
    """Hard partition with a tie report; soft ties are recoverable from `ties`."""

    assignments: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    converged: bool
    ties: list = field(default_factory=list)
    history: Optional[list] = None

    @property
    def k(self) -> int:
        return self.centers.shape[0]


class _Counter:
    """Distance engine of ``run``'s pass: every sigma evaluation there, with counting.

    Its point-to-center and center-pair distances flow through ``rows`` with
    points as matrix rows, as in ``lloyd_run``'s ``_pairwise`` scan, so both
    algorithms see bit-identical values.
    """

    def __init__(self, fn: DistanceFn):
        self.fn = fn
        self.count = 0

    def rows(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.count += m.shape[0]
        return row_distances(self.fn, m, v)


def _require_metric(fn: DistanceFn) -> None:
    if fn.declared_kind not in (Kind.METRIC, Kind.PSEUDOMETRIC):
        raise ConfigError(
            "the ball bounds need a symmetric distance with the triangle inequality; "
            f"{fn.name} is declared {fn.declared_kind.value} (lloyd_run accepts it)"
        )


def _annulus_labels(d: np.ndarray, bounds: np.ndarray, width, radius) -> np.ndarray:
    """Annulus label of each distance ``d[i]``: the count of bounds strictly below it.

    ``bounds`` is one inf-padded ascending row per distance (=
    ``searchsorted(side="left")``) and ``width`` its count of finite bounds.
    A distance past the last bound and beyond ``radius`` gets 0.
    """
    labels = np.count_nonzero(bounds < d[:, None], axis=1)
    labels[(labels == width) & (d > radius)] = 0
    return labels


def prune_neighbor_check(
    prev_center_dist: float, r_i: float, delta_i: float, delta_j: float
) -> bool:
    """True when cluster j provably cannot be a neighbor of cluster i this iteration.

    Uses last iteration's center distance and the two center shifts:
    prev >= 2 r_i + delta_i + delta_j rules the pair out without computing the
    current center distance.  Never prunes on the first iteration (no history).
    Applies elementwise to arrays.
    """
    return prev_center_dist >= 2.0 * r_i + delta_i + delta_j


def init_clusters(ds: Dataset, cfg: BkmConfig) -> list[np.ndarray]:
    """Seeded initial memberships: k non-empty disjoint index sets covering all points."""
    order, bounds = _groups(_init_assignments(ds.points, cfg.k, cfg.seed, cfg.init), cfg.k)
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _init_assignments(x: np.ndarray, k: int, seed: int, init: Init) -> np.ndarray:
    """The assignment array of ``init_clusters`` over the rows of ``x``."""
    n = x.shape[0]
    if k > n:
        raise ConfigError(f"k={k} exceeds dataset size n={n}")
    rng = np.random.default_rng(seed)
    if init is Init.RANDOM_PARTITION:
        perm = rng.permutation(n)
        assign = np.empty(n, dtype=int)
        assign[perm[:k]] = np.arange(k)  # anchors keep every cluster non-empty
        if n > k:
            assign[perm[k:]] = rng.integers(0, k, size=n - k)
    else:
        chosen, assign = _plus_plus(x, k, rng)
        # chosen points anchor their own cluster (guards duplicate-point draws)
        assign[chosen] = np.arange(k)
    return assign


def _plus_plus(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[list[int], np.ndarray]:
    """k-means++ seeds (squared Euclidean) and each point's first nearest seed."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sqeuclidean_rows(x, x[chosen[0]])
    nearest = np.zeros(n, dtype=int)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(np.setdiff1d(np.arange(n), np.array(chosen))[0])
        chosen.append(nxt)
        col = _sqeuclidean_rows(x, x[nxt])
        closer = col < d2  # strict: the first minimum wins, as with argmin
        nearest[closer] = j
        d2 = np.minimum(d2, col)
    return chosen, nearest


def _groups(labels: np.ndarray, k: int) -> tuple[np.ndarray, list]:
    """Group indices by label: group i is ``order[bounds[i]:bounds[i + 1]]``, ascending."""
    order = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")  # radix sort
    bounds = [0] + np.cumsum(np.bincount(labels, minlength=k)).tolist()
    return order, bounds


def _centers_of(x: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Member means of the k clusters, plus the member grouping of ``_groups``."""
    order, bounds = _groups(assign, k)
    xs = np.take(x, order, axis=0)
    segments = zip(bounds, bounds[1:])
    centers = np.stack([xs[a:b].sum(axis=0) / (b - a) for a, b in segments])  # = mean, bit for bit
    return centers, order, bounds


def _repair_empty(assign: np.ndarray, k: int, donor_dists, stats: RunStats, groups: int = 1) -> np.ndarray:
    """Refill emptied clusters with the farthest point of the currently largest one of their group.

    Group g owns cluster ids g k .. g k + k - 1.  ``donor_dists(members,
    cluster)`` must return that cluster's member distances to its center.
    Deterministic: lowest empty id first, first maximal donor of its group,
    first farthest point.  Returns the number of moves per group.
    """
    moved = np.zeros(groups, dtype=int)
    sizes = np.bincount(assign, minlength=groups * k)
    while (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0])
        base = empty - empty % k
        donor = base + int(np.argmax(sizes[base : base + k]))
        mem = np.flatnonzero(assign == donor)
        far = int(mem[int(np.argmax(donor_dists(mem, donor)))])
        assign[far] = empty
        sizes[donor] -= 1
        sizes[empty] += 1
        stats.empty_cluster_repairs += 1
        moved[empty // k] += 1
    return moved


def _pair_tables(k: int, groups: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables over the (groups, k, k) center pairs inside each group: the lower and upper
    cluster id of each pair (group g owns ids g k .. g k + k - 1), and the local i < j mask."""
    ids = np.arange(k)
    base = (np.arange(groups) * k)[:, None, None]
    return base + np.minimum.outer(ids, ids), base + np.maximum.outer(ids, ids), ids[:, None] < ids


def _center_pairs(
    centers: np.ndarray,
    radii: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    deltas: Optional[np.ndarray],
    lb: Optional[np.ndarray],
    counter: _Counter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center distances over the cluster pairs of each group, skipping the pairs pruning rules out.

    ``tables`` come from ``_pair_tables``, and every array over pairs is one
    (k, k) block per group.  ``lb`` holds last iteration's lower bounds on
    the pair distances and ``deltas`` the center shifts (both None on the
    first iteration).  A pair pruned in both directions is not computed; its
    bound shrinks by the two shifts.  Every other i<j pair is computed, all
    in one row-kernel call.  Returns (dmat, new bounds, fired); dmat is nan
    where no distance was computed and fired[g, i, j] says the pruning test
    ruled j out for i.
    """
    lo, hi, upper = tables
    if deltas is None:
        fired = skip = np.zeros(lo.shape, dtype=bool)
    else:
        dlo, dhi = deltas[lo], deltas[hi]  # (2r + d_lo) + d_hi: one float sum per pair
        fired = prune_neighbor_check(lb, radii.reshape(lo.shape[:2] + (1,)), dlo, dhi)
        skip = fired & fired.swapaxes(1, 2)
    pairs = upper & ~skip
    d = counter.rows(centers[hi[pairs]], centers[lo[pairs]])
    dmat = np.full(lo.shape, np.nan)
    dmat[pairs] = d
    dmat.swapaxes(1, 2)[pairs] = d
    newlb = dmat if deltas is None else np.where(skip, lb - dlo - dhi, dmat)
    return dmat, newlb, fired


def _annulus_pass(
    x: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    assign: np.ndarray,
    d_own: np.ndarray,
    dmat: np.ndarray,
    counter: _Counter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annulus-bounded reassignment; dmat holds the (groups, k, k) center distances of
    ``_center_pairs`` (nan = not computed).

    Returns (new assignments, stable-point mask, neighbor matrix); row c of
    the (groups k, k) neighbor matrix covers the k clusters of c's group.
    Each cluster's neighbors are ranked by (center distance, id), and a point
    in annulus m is compared against the first m of them.  The (point,
    candidate) pairs go to the row kernel in chunks of at most n rows; a point
    moves only to a strictly closer candidate, the nearest one, exact ties to
    the lowest id.
    """
    n, k = x.shape[0], dmat.shape[-1]
    dmat = dmat.reshape(-1, k)
    near = dmat < 2.0 * radii[:, None]
    key = np.where(near, dmat, np.inf)
    width = np.count_nonzero(near, axis=1)
    local = np.argsort(key, axis=1, kind="stable")[:, : width.max()]  # non-neighbors last
    bounds = np.take_along_axis(key, local, axis=1) / 2.0  # annulus bounds, inf-padded
    ranked = local + (np.arange(len(dmat)) // k * k)[:, None]  # ids of the group's own clusters
    stable = d_own <= key.min(axis=1).take(assign) / 2.0
    pts = np.flatnonzero(~stable)
    own = assign.take(pts)
    dd = d_own.take(pts)
    labels = _annulus_labels(dd, bounds[own], width[own], radii[own])
    keep = labels > 0
    pts, own, dd, labels = pts[keep], own[keep], dd[keep], labels[keep]
    ends = np.cumsum(labels)
    new_assign = assign.copy()
    lo = 0
    while lo < pts.size:
        base = ends[lo] - labels[lo]
        # points lo..hi-1: as many as fit in n pairs, at least one
        hi = max(lo + 1, int(ends.searchsorted(base + n, side="right")))
        cnt = labels[lo:hi]
        starts = ends[lo:hi] - cnt - base
        seg = np.repeat(np.arange(hi - lo), cnt)  # pair -> point of the chunk
        cand = ranked[own[lo:hi].take(seg), np.arange(seg.size) - starts.take(seg)]
        dist = counter.rows(x[pts[lo:hi].take(seg)], centers[cand])
        best = np.minimum.reduceat(dist, starts)
        first = np.minimum.reduceat(np.where(dist == best.take(seg), cand, len(centers)), starts)  # lowest id
        movers = best < dd[lo:hi]  # strict improvement only
        new_assign[pts[lo:hi][movers]] = first[movers]
        lo = hi
    return new_assign, stable, near


def _cluster_groups(
    x: np.ndarray,
    bounds: Sequence[int],
    seeds: Sequence[int],
    cfg: BkmConfig,
    stats: RunStats,
    *,
    instrument: bool = False,
    history: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clustering loop of ``run`` over independent groups of rows, in one array pass.

    Rows ``bounds[g]:bounds[g + 1]`` of ``x`` are group g, initialized with
    ``cfg`` and seed ``seeds[g]``.  Group g owns the cluster ids g k .. g k +
    k - 1, and only its own centers pair up, as one (k, k) block of the pair
    arrays.  A group that converges leaves the pass, so every group gets the
    partition, centers, radii and distance count it would get alone.
    Returns (cluster id per row, centers (G k, d), radii, converged per
    group); ``stats`` gets the totals over the groups and ``history`` (a list,
    or None) the ids after each iteration, all rows while no group has left.
    """
    fn = cfg.distance
    _require_metric(fn)
    k = cfg.k
    counter = _Counter(fn)
    spans = list(zip(bounds, bounds[1:], seeds))
    assign = np.concatenate([_init_assignments(x[a:b], k, s, cfg.init) + g * k for g, (a, b, s) in enumerate(spans)])
    if history is not None:
        history.append(assign.copy())
    out = np.empty_like(assign)
    out_centers = np.empty((len(spans) * k, x.shape[1]))
    out_radii = np.empty(len(spans) * k)
    converged = np.zeros(len(spans), dtype=bool)
    live = np.arange(len(spans))  # input group of each group still in the pass
    rows = np.arange(x.shape[0])  # input row of each row still in the pass
    tables = _pair_tables(k, len(live))
    prev_centers = None
    lb = None  # lower bounds on previous-iteration center distances, per pair
    for iteration in range(1, cfg.max_iter + 1):
        centers, order, cuts = _centers_of(x, assign, len(live) * k)
        deltas = None if prev_centers is None else counter.rows(centers, prev_centers)
        d_own = counter.rows(x, centers[assign])
        radii = np.maximum.reduceat(d_own[order], cuts[:-1])
        dmat, lb, fired = _center_pairs(centers, radii, tables, deltas, lb, counter)
        stats.prunings_fired += int(np.count_nonzero(fired))

        new_assign, stable, near = _annulus_pass(x, centers, radii, assign, d_own, dmat, counter)
        stats.neighbor_free_stable_clusters += int(np.count_nonzero(~near.any(axis=1)))

        if instrument:
            dfull = _pairwise(fn, x, centers)
            dfull[assign[:, None] // k != np.arange(len(centers)) // k] = np.inf  # other groups' centers
            best_full = dfull.min(axis=1)
            st = np.flatnonzero(stable)
            stats.stable_violations += int((dfull[st, assign[st]] != best_full[st]).sum())
            mv = np.flatnonzero(new_assign != assign)
            stats.move_target_violations += int((~near[assign[mv], new_assign[mv] % k]).sum())
            g = np.arange(len(live))
            dc = _pairwise(fn, centers, centers).reshape(len(live), k, len(live), k)[g, :, g]
            stats.pruning_violations += int(np.count_nonzero(fired & (dc < 2.0 * radii.reshape(-1, k, 1))))

        moved = np.bincount(new_assign[new_assign != assign] // k, minlength=len(live))
        donor = lambda mem, c: counter.rows(x[mem], centers[c])
        moved += _repair_empty(new_assign, k, donor, stats, len(live))
        stats.points_moved_per_iter.append(int(moved.sum()))
        stats.iterations = iteration
        assign = new_assign
        if history is not None:
            history.append(assign.copy())
        done = moved == 0 if iteration < cfg.max_iter else np.ones(len(live), dtype=bool)
        if done.any():
            # finished groups write out their rows, centers and radii under their input ids
            group = assign // k
            fin, cfin = done[group], np.repeat(done, k)
            out[rows[fin]] = assign[fin] + (live[group[fin]] - group[fin]) * k
            ids = (live[done][:, None] * k + np.arange(k)).ravel()
            out_centers[ids], out_radii[ids] = centers[cfin], radii[cfin]
            converged[live[done]] = moved[done] == 0
            if done.all():
                break
            # the rest renumber to close the gaps
            x, rows, assign = x[~fin], rows[~fin], assign[~fin] - np.cumsum(done)[group[~fin]] * k
            centers, lb, live = centers[~cfin], lb[~done], live[~done]
            tables = _pair_tables(k, len(live))
        prev_centers = centers

    stats.distance_computations = counter.count
    return out, out_centers, out_radii, converged


def run(
    ds: Dataset,
    cfg: BkmConfig,
    *,
    instrument: bool = False,
    record_history: bool = False,
) -> tuple[Clustering, RunStats]:
    """Accelerated clustering loop; exact with respect to ``lloyd_run``.

    Iterates center/radius/neighbor/stable/annulus/reassign until an
    iteration moves no point, or max_iter is hit (converged=False then).
    ``instrument`` re-checks every stable point, move target and fired pruning
    against uncounted brute-force distances, accumulating violation counters.
    """
    stats = RunStats()
    history = [] if record_history else None
    assign, centers, radii, converged = _cluster_groups(
        ds.points, [0, ds.n], [cfg.seed], cfg, stats, instrument=instrument, history=history
    )
    result = Clustering(
        assignments=assign,
        centers=centers,
        radii=radii,
        converged=bool(converged[0]),
        ties=_ties(_pairwise(cfg.distance, ds.points, centers)),
        history=history,
    )
    return result, stats


def lloyd_run(
    ds: Dataset, cfg: BkmConfig, *, record_history: bool = False
) -> tuple[Clustering, RunStats]:
    """Textbook full-scan iteration with the same init, movement rule and repair."""
    x, n, k = ds.points, ds.n, cfg.k
    assign = _init_assignments(x, k, cfg.seed, cfg.init)
    stats = RunStats()
    history = [assign.copy()] if record_history else None
    converged = False
    for iteration in range(1, cfg.max_iter + 1):
        centers, _, _ = _centers_of(x, assign, k)
        dfull = _pairwise(cfg.distance, x, centers)
        stats.distance_computations += n * k
        cur = dfull[np.arange(n), assign]
        best = dfull.min(axis=1)
        first = dfull.argmin(axis=1)
        new_assign = np.where(cur == best, assign, first)
        moved = int((new_assign != assign).sum())
        moved += int(_repair_empty(new_assign, k, lambda mem, c: dfull[mem, c], stats)[0])
        stats.points_moved_per_iter.append(int(moved))
        stats.iterations = iteration
        assign = new_assign
        if history is not None:
            history.append(assign.copy())
        if moved == 0:
            converged = True
            break

    order, bounds = _groups(assign, k)
    radii = np.maximum.reduceat(dfull[order, assign[order]], bounds[:-1])
    result = Clustering(
        assignments=assign,
        centers=centers,
        radii=radii,
        converged=converged,
        ties=_ties(dfull),  # dfull is against the returned centers
        history=history,
    )
    return result, stats


def _ties(dfull: np.ndarray) -> list:
    """Points whose nearest-center argmin is not unique, from their (n, k) distances."""
    hit = dfull == dfull.min(axis=1)[:, None]
    tied_rows = np.flatnonzero(np.count_nonzero(hit, axis=1) > 1)
    return [(int(p), tuple(np.flatnonzero(hit[p]).tolist())) for p in tied_rows]
