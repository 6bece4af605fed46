"""Approximation spaces, rough objects, and rough-random function wrappers.

An :class:`ApproxSpace` is a finite universe with arbitrary lower/upper
subset maps; six minimal axioms (nesting, lower idempotence, monotonicity of
both maps, bottom/top normalization) are checked by powerset exhaustion on
small universes.  From a space come the approximation collection, the rough
pairs and the xi maps into them, all wrapped as typed partial functions whose
domain/codomain discipline is machine-checked.  A clustering run can be
replayed as a sequence of partition-induced spaces with a total map from each
iteration's approximations onto the next iteration's clusters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ball_kmeans import BkmConfig, Dataset, _groups, _integer, run
from .existential import BudgetError, _block_images, _unions
from .metrics import _first_true

__all__ = [
    "ApproxSpace",
    "RoughPair",
    "CrrfKind",
    "CrrfWrapper",
    "CrrfValidation",
    "Constraint",
    "SpaceAxiomReport",
    "Crrf3TraceEntry",
    "pawlak_space",
    "check_approx_axioms",
    "approximation_set",
    "e1_pairs",
    "f_objects",
    "e2_objects",
    "xi_functions",
    "xi5",
    "bkm_crrf3_trace",
]

EXHAUSTIVE_LIMIT = 14


@dataclass
class ApproxSpace:
    """Finite universe with lower and upper approximation maps on subsets.

    A :func:`pawlak_space` also keeps its blocks and their (k, n) table, which the checks read in place of the maps.
    """

    universe: tuple
    lower: Callable[[frozenset], frozenset]
    upper: Callable[[frozenset], frozenset]
    blocks: Optional[tuple] = field(default=None, init=False)  # set by pawlak_space
    _table: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.universe = tuple(self.universe)

    def approx(self, x: frozenset) -> tuple[frozenset, frozenset]:
        x = frozenset(x)
        return frozenset(self.lower(x)), frozenset(self.upper(x))


def _subset(universe: tuple, row) -> frozenset:
    return frozenset(el for el, keep in zip(universe, row) if keep)  # an element may be a tuple


def pawlak_space(universe: Sequence, blocks: Sequence[Sequence]) -> ApproxSpace:
    """Partition-induced space: lower/upper are unions of blocks inside/meeting x, from a (k, n) block table."""
    uni = tuple(universe)
    if len(set(uni)) != len(uni):
        raise ValueError("universe has repeated elements")
    bl = tuple(frozenset(b) for b in blocks)
    seen: set = set()
    for b in bl:
        if not b:
            raise ValueError("partition blocks must be non-empty")
        if b & seen:
            raise ValueError("partition blocks must be disjoint")
        seen |= b
    if seen != set(uni):
        raise ValueError("partition must cover the universe")

    table = np.array([[el in b for el in uni] for b in bl], dtype=bool).reshape(len(bl), len(uni))
    images = lambda x: _block_images(table, np.array([[el in x for el in uni]], dtype=bool))[:, 0]
    space = ApproxSpace(uni, lambda x: _subset(uni, images(x)[0]), lambda x: _subset(uni, images(x)[1]))
    space.blocks, space._table = bl, table
    return space


def _images(space: ApproxSpace, rows: np.ndarray) -> np.ndarray:
    """Lower and upper images of a stack of 0/1 rows over the universe positions, stacked as (2, m, n).

    A space without a block table is asked through ``approx`` once per row.  A repeated universe element,
    or an image with an element outside the universe, is refused.
    """
    uni = space.universe
    pos = {el: i for i, el in enumerate(uni)}
    if len(pos) != len(uni):
        raise ValueError("universe has repeated elements")
    if space._table is not None:
        return _block_images(space._table, rows)
    out = np.zeros((2, *rows.shape), dtype=bool)
    for r, row in enumerate(rows):
        x = _subset(uni, row)
        for name, images, image in zip(("lower", "upper"), out, space.approx(x)):
            outside = image.difference(pos)
            if outside:
                raise ValueError(f"{name} of {set(x)} returns {set(outside)} outside the universe")
            images[r, [pos[el] for el in image]] = True
    return out


def _mask_table(space: ApproxSpace) -> np.ndarray:
    """The (2, 2^n) masks ``lo[m]``, ``up[m]`` of the lower and upper approximations of the subset with mask m.

    The mask of a subset is its 0/1 row packed, bit i standing for ``universe[i]``.
    """
    n = len(space.universe)
    if n > EXHAUSTIVE_LIMIT:
        raise BudgetError(f"universe of size {n} exceeds the exhaustion limit {EXHAUSTIVE_LIMIT}")
    bits = 1 << np.arange(n, dtype=np.int64)
    return _images(space, (np.arange(1 << n)[:, None] & bits) != 0) @ bits


def _subsets(universe: tuple, masks) -> list[frozenset]:
    """The subsets with these masks."""
    rows = np.asarray(masks, dtype=np.int64).reshape(-1, 1) >> np.arange(len(universe)) & 1
    return [_subset(universe, row) for row in rows.tolist()]


def _monotone(universe: tuple, img: np.ndarray) -> tuple:
    """Whether a <= b implies img[a] <= img[b] over every mask pair, with the first failing (a, b).

    One OR pass per element gives, for every b at once, the union of the images of b's submasks
    (the subset-sum transform).  b runs in mask order; within b, bit i of the submask index picks
    the i-th smallest element of b.
    """
    below = img.copy()
    for p in range(len(universe)):
        half = below.reshape(-1, 2, 1 << p)
        half[:, 1] |= half[:, 0]
    idx, _ = _first_true(below & ~img != 0)
    if idx is None:
        return True, None
    b = idx[0]
    members = [p for p in sorted(range(len(universe)), key=universe.__getitem__) if b >> p & 1]
    j = np.arange(1 << len(members))
    a = sum((j >> i & 1) << p for i, p in enumerate(members))
    (i,), _ = _first_true(img[a] & ~img[b] != 0)
    return False, tuple(_subsets(universe, (a[i], b)))


@dataclass
class SpaceAxiomReport:
    """Per-axiom outcome (passed, witness); sampled=True marks non-exhaustive runs."""

    results: dict
    sampled: bool = False

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.results.values())

    def failed(self) -> list[str]:
        return sorted(name for name, (passed, _) in self.results.items() if not passed)


def check_approx_axioms(space: ApproxSpace, *, samples: int = 512, seed: int = 0) -> SpaceAxiomReport:
    """Verify the six minimal approximation axioms.

    Exhaustive over the powerset (and all nested pairs for monotonicity) up
    to ``EXHAUSTIVE_LIMIT`` universe elements; beyond that a seeded sample of
    subset rows x and nested pairs (x & y, x) is used and the report is
    flagged as sampled.  Either way a map image outside the universe, or a
    repeated universe element, raises ValueError.
    """
    if _integer(seed, "seed") < 0 or _integer(samples, "samples") < 1:
        raise ValueError(f"seed must be non-negative and samples positive, got {seed!r} and {samples!r}")
    uni = space.universe
    if len(uni) <= EXHAUSTIVE_LIMIT:
        return SpaceAxiomReport(results=_exhaustive_axioms(space), sampled=False)
    x, y = np.random.default_rng(seed).integers(0, 2, size=(2, samples, len(uni))) != 0
    a = x & y
    ends = np.repeat([[False], [True]], len(uni), axis=1)  # the empty set and the universe
    lo, up = _images(space, np.concatenate((x, a, ends)))
    lo_x, up_x, lo_a, up_a = lo[:samples], up[:samples], lo[samples:-2], up[samples:-2]

    def first(violated: np.ndarray, *rows: np.ndarray) -> tuple:
        idx, _ = _first_true(violated.any(axis=1))
        return (True, None) if idx is None else (False, tuple(_subset(uni, r[idx[0]]) for r in rows))

    results = {
        "int-cl": first(lo_x & ~up_x, x),
        "l-id": first(_images(space, lo_x)[0] & ~lo_x, x),
        "l-mo": first(lo_a & ~lo_x, a, x),
        "u-mo": first(up_a & ~up_x, a, x),
        "l-bot": first(lo[-2:-1], ends[:1]),
        "u-top": first(~up[-1:], ends[1:]),
    }
    return SpaceAxiomReport(results=results, sampled=True)


def _exhaustive_axioms(space: ApproxSpace) -> dict:
    """The six axioms over every subset and nested pair, as mask-table tests.

    Each witness is the first violation: subsets in mask order, pairs in the
    order of :func:`_monotone`.
    """
    uni = space.universe
    lo, up = _mask_table(space)

    def first(violated: np.ndarray) -> tuple:
        idx, _ = _first_true(violated)
        return (True, None) if idx is None else (False, tuple(_subsets(uni, idx)))

    return {
        "int-cl": first(lo & ~up != 0),
        "l-id": first(lo[lo] & ~lo != 0),
        "l-mo": _monotone(uni, lo),
        "u-mo": _monotone(uni, up),
        "l-bot": first(lo[:1] != 0),
        "u-top": (True, None) if up[-1] == len(up) - 1 else (False, (frozenset(uni),)),
    }


def approximation_set(space: ApproxSpace) -> list[frozenset]:
    """All lower and upper approximation images, in mask order.

    For a partition-induced space these are the unions of its blocks, at any
    universe size, unless they would hold more than 2^24 members in total;
    any other space is exhausted up to ``EXHAUSTIVE_LIMIT`` elements.  Past
    either bound, BudgetError.
    """
    uni, blocks = space.universe, space.blocks
    if blocks is None:
        return _subsets(uni, np.unique(np.concatenate(_mask_table(space))))
    pos = {el: i for i, el in enumerate(uni)}
    if (len(uni) << len(blocks)) >> 1 > 1 << 24:  # each element lies in half the unions
        raise BudgetError(f"the unions of {len(blocks)} blocks over {len(uni)} elements exceed 2^24 members")
    # disjoint blocks sorted by their largest position: entry m of the unions has the m-th smallest mask
    return _unions(sorted(blocks, key=lambda b: max(map(pos.__getitem__, b))))


@dataclass(frozen=True)
class RoughPair:
    """A rough object as a pair of approximations (lower part, upper part)."""

    lower_part: frozenset
    upper_part: frozenset

    @property
    def is_nested(self) -> bool:
        return self.lower_part <= self.upper_part


def e1_pairs(space: ApproxSpace) -> list[RoughPair]:
    """The rough pairs (x^l, x^u) over all subsets, deduplicated, canonical order."""
    lo, up = _mask_table(space)
    uni, n = space.universe, len(space.universe)
    keys = np.unique(lo << n | up)
    return [RoughPair(*pair) for pair in zip(_subsets(uni, keys >> n), _subsets(uni, keys & (len(lo) - 1)))]


def f_objects(space: ApproxSpace) -> list[frozenset]:
    """Subsets that are not an approximation of anything (the non-definable leftovers)."""
    lo, up = _mask_table(space)
    return _subsets(space.universe, np.setdiff1d(np.arange(len(lo)), np.concatenate((lo, up))))


def e2_objects(space: ApproxSpace) -> list[frozenset]:
    """Upper-closed subsets: x with x^u = x."""
    _, up = _mask_table(space)
    return _subsets(space.universe, np.flatnonzero(up == np.arange(len(up))))


class CrrfKind(enum.Enum):
    TYPE1 = "type-1"
    TYPE2 = "type-2"
    TYPE3 = "type-3"
    TYPEH = "type-H"


class Constraint(enum.Enum):
    NONE = "none"
    MINIMAL_COVER = "minimal-cover"


@dataclass
class CrrfValidation:
    domain_ok: bool
    codomain_ok: bool
    total: bool
    defined_points: int
    undefined_points: int

    @property
    def ok(self) -> bool:
        return self.domain_ok and self.codomain_ok


@dataclass
class CrrfWrapper:
    """A typed (partial) map between rough-object collections.

    Type-1 maps approximations to rough objects and may be partial; type-2
    maps (approximation, subset) pairs to reals and must be total, as must
    type-3 (approximations to arbitrary objects).  Type-H maps (operator tag,
    subset) pairs to rough objects.  ``func`` returns None where undefined.
    """

    kind: CrrfKind
    domain: tuple
    func: Callable
    codomain: Optional[tuple] = None
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def apply(self, x):
        return self.func(x)

    def validate(self, a_tau: Optional[Sequence] = None) -> CrrfValidation:
        values = [self.func(x) for x in self.domain]
        defined = [v for v in values if v is not None]
        total = len(defined) == len(values)
        in_a_tau = a_tau is None or self.kind in (CrrfKind.TYPE2, CrrfKind.TYPEH) or set(self.domain) <= set(a_tau)
        partial_ok = total or self.kind in (CrrfKind.TYPE1, CrrfKind.TYPEH)
        return CrrfValidation(
            domain_ok=in_a_tau,
            codomain_ok=partial_ok and (self.codomain is None or set(defined) <= set(self.codomain)),
            total=total,
            defined_points=len(defined),
            undefined_points=len(values) - len(defined),
        )


def xi_functions(
    space: ApproxSpace, variant: int, constraint: Constraint = Constraint.NONE
) -> CrrfWrapper:
    """The three canonical type-1 maps from approximations into rough pairs.

    Variant 1 sends a to the first pair (a, b^u); variant 2 to the first pair
    (b^l, a); variant 3 to the first pair touching a in either component.
    "First" is the canonical bitmask order, which makes the for-some-b choice
    deterministic.  Under the minimal-cover constraint, candidates are the
    pairs (e, f) with e <= a <= f (component shape kept for variants 1 and 2)
    and an inclusion-minimal one is chosen; where no candidate exists the map
    is undefined at that point.
    """
    if variant not in (1, 2, 3):
        raise ValueError("variant must be 1, 2 or 3")
    a_tau = tuple(approximation_set(space))
    pairs = e1_pairs(space)

    touching = {1: lambda p: (p.lower_part,), 2: lambda p: (p.upper_part,), 3: lambda p: (p.lower_part, p.upper_part)}
    touching = touching[variant]
    below = lambda q, p: q != p and q.lower_part <= p.lower_part and q.upper_part <= p.upper_part

    def func(a: frozenset) -> Optional[RoughPair]:
        a = frozenset(a)
        if constraint is Constraint.NONE:
            return next((p for p in pairs if a in touching(p)), None)
        pool = [p for p in pairs if p.lower_part <= a <= p.upper_part and (variant == 3 or a in touching(p))]
        return next((p for p in pool if not any(below(q, p) for q in pool)), None)

    return CrrfWrapper(
        kind=CrrfKind.TYPE1,
        domain=a_tau,
        func=func,
        codomain=tuple(pairs),
        label=f"xi{variant}",
        metadata={"constraint": constraint.value},
    )


def xi5(a: frozenset, b: frozenset) -> float:
    """Relative outer share |b \\ a| / |b|; zero exactly when b is inside a."""
    a = frozenset(a)
    b = frozenset(b)
    if not b:
        raise ValueError("xi5 needs a non-empty second argument")
    return len(b - a) / len(b)


@dataclass
class Crrf3TraceEntry:
    """One clustering iteration viewed as a map out of the induced space."""

    iteration: int
    partition: tuple
    space: ApproxSpace
    crrf: CrrfWrapper
    fixed_point: bool
    metadata: dict = field(default_factory=dict)


def _partition_blocks(assign: np.ndarray, k: int) -> tuple:
    order, bounds = _groups(assign, k)
    return tuple(frozenset(order[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


def bkm_crrf3_trace(ds: Dataset, cfg: BkmConfig) -> list[Crrf3TraceEntry]:
    """Replay a clustering run as per-iteration spaces with total maps onto the next partition.

    Each entry wraps iteration t's partition as a partition-induced space and
    records the map taking every approximation (a union of t-blocks) to the
    iteration-(t+1) cluster with the largest overlap (ties to the lowest
    cluster index, the empty set to cluster 0).  On a converged run the last
    entry maps the final partition to itself.
    """
    clustering, _ = run(ds, cfg, record_history=True)
    history = clustering.history
    k = cfg.k
    entries = []
    for t in range(len(history) - 1):
        blocks_t = _partition_blocks(history[t], k)
        blocks_next = _partition_blocks(history[t + 1], k)
        space = pawlak_space(range(ds.n), blocks_t)
        a_tau = tuple(approximation_set(space))

        def func(x: frozenset, labels=history[t + 1], blocks_next=blocks_next):
            overlaps = np.bincount(labels[np.fromiter(x, dtype=np.intp, count=len(x))], minlength=k)
            return blocks_next[int(overlaps.argmax())]

        wrapper = CrrfWrapper(
            kind=CrrfKind.TYPE3,
            domain=a_tau,
            func=func,
            codomain=blocks_next,
            label=f"iteration-{t + 1}-update",
            metadata={"formalization": "candidate", "style": "per-iteration partition spaces"},
        )
        entries.append(
            Crrf3TraceEntry(
                iteration=t + 1,
                partition=tuple(tuple(sorted(b)) for b in blocks_t),
                space=space,
                crrf=wrapper,
                fixed_point=bool(np.array_equal(history[t], history[t + 1])),
                metadata={"formalization": "candidate"},
            )
        )
    return entries
