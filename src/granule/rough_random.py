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

from .ball_kmeans import BkmConfig, Dataset, run
from .existential import BudgetError, _unions
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

EXHAUSTIVE_LIMIT = 12


@dataclass
class ApproxSpace:
    """Finite universe with lower and upper approximation maps on subsets."""

    universe: tuple
    lower: Callable[[frozenset], frozenset]
    upper: Callable[[frozenset], frozenset]
    blocks: Optional[tuple] = None  # set when induced by a partition

    def __post_init__(self):
        self.universe = tuple(self.universe)
        self._memo: dict = {}
        self._pos = {el: i for i, el in enumerate(self.universe)}

    def approx(self, x: frozenset) -> tuple[frozenset, frozenset]:
        x = frozenset(x)
        hit = self._memo.get(x)
        if hit is None:
            hit = (frozenset(self.lower(x)), frozenset(self.upper(x)))
            self._memo[x] = hit
        return hit

    def subset_order(self, x: frozenset) -> tuple:
        """Canonical sort key: bitmask over the universe order."""
        return (sum(1 << self._pos[el] for el in x),)


def pawlak_space(universe: Sequence, blocks: Sequence[Sequence]) -> ApproxSpace:
    """Partition-induced space: lower/upper are unions of blocks inside/meeting x."""
    uni = tuple(universe)
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

    def lower(x: frozenset) -> frozenset:
        return frozenset().union(*(b for b in bl if b <= x)) if any(b <= x for b in bl) else frozenset()

    def upper(x: frozenset) -> frozenset:
        return frozenset().union(*(b for b in bl if b & x)) if any(b & x for b in bl) else frozenset()

    return ApproxSpace(universe=uni, lower=lower, upper=upper, blocks=bl)


def _mask_table(space: ApproxSpace, limit: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Every subset with its approximation masks, one ``approx`` call per subset.

    Bit i of a mask stands for ``universe[i]``; ``subsets[m]`` is the subset
    with mask m, and ``lo[m]``, ``up[m]`` are the masks of its lower and upper
    approximations.  A map that leaves the universe is refused.
    """
    uni = space.universe
    if len(uni) > limit:
        raise BudgetError(f"universe of size {len(uni)} exceeds the exhaustion limit {limit}")
    if len(set(uni)) != len(uni):
        raise ValueError("universe has repeated elements")
    subsets = _unions([{el} for el in uni])
    index = {x: m for m, x in enumerate(subsets)}
    table = np.empty((2, len(subsets)), dtype=np.int64)
    for m, x in enumerate(subsets):
        for row, name, image in zip(table, ("lower", "upper"), space.approx(x)):
            if image not in index:
                raise ValueError(
                    f"{name} of {set(x)} returns {set(image - subsets[-1])} outside the universe"
                )
            row[m] = index[image]
    return subsets, table[0], table[1]


def _nested_pairs(universe: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Mask arrays (a, b) of all 3^n pairs a <= b, in the exhaustive check order.

    b runs in mask order; within b, bit i of the submask index picks the i-th
    smallest element of b, so a runs in the submask order over ``sorted(b)``.
    """
    n = len(universe)
    bs = np.arange(1 << n, dtype=np.int64)
    count = 1 << sum((bs >> p) & 1 for p in range(n))
    b = np.repeat(bs, count)
    j = np.arange(b.size, dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
    a = np.zeros_like(b)
    taken = np.zeros_like(b)
    for p in sorted(range(n), key=universe.__getitem__):
        inb = (b >> p) & 1
        a |= ((j >> taken) & inb) << p
        taken += inb
    return a, b


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


def check_approx_axioms(
    space: ApproxSpace,
    *,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    samples: int = 512,
    seed: int = 0,
) -> SpaceAxiomReport:
    """Verify the six minimal approximation axioms.

    Exhaustive over the powerset (and all nested pairs for monotonicity) up
    to ``exhaustive_limit`` universe elements, where a map image outside the
    universe raises ValueError; beyond that a seeded sample of subsets and
    nested pairs is used and the report is flagged as sampled.
    """
    uni = space.universe
    if len(uni) <= exhaustive_limit:
        return SpaceAxiomReport(results=_exhaustive_axioms(space, exhaustive_limit), sampled=False)
    rng = np.random.default_rng(seed)
    objs = np.asarray(uni, dtype=object)
    pool = [frozenset(objs[rng.integers(0, 2, size=len(uni)).astype(bool)]) for _ in range(samples)]
    pairs = [(x & frozenset(objs[rng.integers(0, 2, size=len(uni)).astype(bool)]), x) for x in pool]
    lo = lambda x: space.approx(x)[0]
    up = lambda x: space.approx(x)[1]

    def first(bad: Callable, cases: list) -> tuple:
        return next(((False, case) for case in cases if bad(*case)), (True, None))

    singles = [(x,) for x in pool]
    results = {
        "int-cl": first(lambda x: not lo(x) <= up(x), singles),
        "l-id": first(lambda x: not lo(lo(x)) <= lo(x), singles),
        "l-mo": first(lambda a, b: not lo(a) <= lo(b), pairs),
        "u-mo": first(lambda a, b: not up(a) <= up(b), pairs),
        "l-bot": first(lambda x: lo(x) != x, [(frozenset(),)]),
        "u-top": first(lambda x: up(x) != x, [(frozenset(uni),)]),
    }
    return SpaceAxiomReport(results=results, sampled=True)


def _exhaustive_axioms(space: ApproxSpace, limit: int) -> dict:
    """The six axioms over every subset and nested pair, as mask-table tests.

    Each witness is the first violation: subsets in mask order, pairs in the
    order of :func:`_nested_pairs`.
    """
    subsets, lo, up = _mask_table(space, limit)
    a, b = _nested_pairs(space.universe)

    def first(violated: np.ndarray, *masks: np.ndarray) -> tuple:
        idx, _ = _first_true(violated)
        return (True, None) if idx is None else (False, tuple(subsets[m[idx[0]]] for m in masks))

    every = np.arange(len(subsets))
    return {
        "int-cl": first(lo & ~up != 0, every),
        "l-id": first(lo[lo] & ~lo != 0, every),
        "l-mo": first(lo[a] & ~lo[b] != 0, a, b),
        "u-mo": first(up[a] & ~up[b] != 0, a, b),
        "l-bot": (True, None) if lo[0] == 0 else (False, (subsets[0],)),
        "u-top": (True, None) if up[-1] == every[-1] else (False, (subsets[-1],)),
    }


def approximation_set(space: ApproxSpace, *, exhaustive_limit: int = 14) -> list[frozenset]:
    """All lower and upper approximation images, canonically ordered.

    Partition-induced spaces fall back to block unions when the universe is
    too large to exhaust; anything else past the limit raises BudgetError.
    """
    if len(space.universe) > exhaustive_limit and space.blocks is not None:
        return sorted(set(_unions(space.blocks)), key=space.subset_order)
    subsets, lo, up = _mask_table(space, exhaustive_limit)
    return [subsets[m] for m in np.unique(np.concatenate((lo, up)))]


@dataclass(frozen=True)
class RoughPair:
    """A rough object as a pair of approximations (lower part, upper part)."""

    lower_part: frozenset
    upper_part: frozenset

    @property
    def is_nested(self) -> bool:
        return self.lower_part <= self.upper_part


def e1_pairs(space: ApproxSpace, *, exhaustive_limit: int = 14) -> list[RoughPair]:
    """The rough pairs (x^l, x^u) over all subsets, deduplicated, canonical order."""
    subsets, lo, up = _mask_table(space, exhaustive_limit)
    n = len(space.universe)
    return [
        RoughPair(lower_part=subsets[key >> n], upper_part=subsets[key & ((1 << n) - 1)])
        for key in np.unique(lo << n | up)
    ]


def f_objects(space: ApproxSpace, *, exhaustive_limit: int = 14) -> list[frozenset]:
    """Subsets that are not an approximation of anything (the non-definable leftovers)."""
    subsets, lo, up = _mask_table(space, exhaustive_limit)
    return [subsets[m] for m in np.setdiff1d(np.arange(len(subsets)), np.concatenate((lo, up)))]


def e2_objects(space: ApproxSpace, *, exhaustive_limit: int = 14) -> list[frozenset]:
    """Upper-closed subsets: x with x^u = x."""
    subsets, _, up = _mask_table(space, exhaustive_limit)
    return [subsets[m] for m in np.flatnonzero(up == np.arange(len(subsets)))]


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
        domain_ok = True
        if self.kind in (CrrfKind.TYPE1, CrrfKind.TYPE3) and a_tau is not None:
            domain_ok = set(self.domain) <= set(a_tau)
        defined = undefined = 0
        codomain_ok = True
        codomain = None if self.codomain is None else set(self.codomain)
        for x in self.domain:
            val = self.func(x)
            if val is None:
                undefined += 1
                continue
            defined += 1
            if codomain is not None and val not in codomain:
                codomain_ok = False
        total = undefined == 0
        if self.kind in (CrrfKind.TYPE2, CrrfKind.TYPE3) and not total:
            codomain_ok = False
        return CrrfValidation(
            domain_ok=domain_ok,
            codomain_ok=codomain_ok,
            total=total,
            defined_points=defined,
            undefined_points=undefined,
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

    def candidates(a: frozenset) -> list[RoughPair]:
        if constraint is Constraint.MINIMAL_COVER:
            pool = [p for p in pairs if p.lower_part <= a <= p.upper_part]
            if variant == 1:
                pool = [p for p in pool if p.lower_part == a]
            elif variant == 2:
                pool = [p for p in pool if p.upper_part == a]
            minimal = [
                p
                for p in pool
                if not any(
                    q is not p
                    and q.lower_part <= p.lower_part
                    and q.upper_part <= p.upper_part
                    and (q.lower_part, q.upper_part) != (p.lower_part, p.upper_part)
                    for q in pool
                )
            ]
            return minimal
        if variant == 1:
            return [p for p in pairs if p.lower_part == a]
        if variant == 2:
            return [p for p in pairs if p.upper_part == a]
        return [p for p in pairs if p.lower_part == a or p.upper_part == a]

    def func(a: frozenset) -> Optional[RoughPair]:
        cand = candidates(frozenset(a))
        return cand[0] if cand else None

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
    return tuple(frozenset(int(i) for i in np.flatnonzero(assign == c)) for c in range(k))


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

        def make_func(blocks_next=blocks_next):
            def func(x: frozenset):
                overlaps = [len(x & b) for b in blocks_next]
                return blocks_next[int(np.argmax(overlaps))]

            return func

        wrapper = CrrfWrapper(
            kind=CrrfKind.TYPE3,
            domain=a_tau,
            func=make_func(),
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
