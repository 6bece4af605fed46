"""Hand-built systems that each violate exactly one axiom of the full suite.

Shared between the unit tests and the acceptance run.  Each builder returns
(system, violated_axiom); the builders start from clean powerset systems and
surgically break a single condition, which takes care since the axioms
interlock (a careless edit to a lower map usually breaks monotonicity or
lower stability along with the intended target).

The two non-distributive lattices N5 and M3 are the exception: in a lattice
the two distributive laws stand or fall together, so each of them violates
exactly G3 and G4.
"""

import numpy as np

from granule.existential import FinitePartialSystem, build_set_hgos


def pt2_violation():
    """Symmetric parthood between the two distinct singleton blocks."""
    sys_ = build_set_hgos([1, 2], [[1], [2]])
    a = sys_.index(frozenset({1}))
    b = sys_.index(frozenset({2}))
    p = sys_.parthood.copy()
    p[a, b] = p[b, a] = True
    sys_.parthood = p
    return sys_, "PT2"


def ul1_violation():
    """Lower map not idempotent at one granule-free subset of a cover system."""
    sys_ = build_set_hgos([1, 2, 3, 4], [[1, 2], [3, 4], [2, 3]])
    target = sys_.index(frozenset({2, 4}))
    sys_.lower = sys_.lower.copy()
    sys_.lower[target] = sys_.index(frozenset({2}))  # l({2}) = {} breaks l-idempotence
    return sys_, "UL1"


def tb_violation():
    """Bottom no longer below everything."""
    sys_ = build_set_hgos([1, 2], [[1], [2]])
    bot = sys_.bottom
    p = sys_.parthood.copy()
    for j in range(sys_.n):
        if j != bot:
            p[bot, j] = False
    sys_.parthood = p
    return sys_, "TB"


def ls_violation():
    """A granule whose own lower approximation loses it."""
    sys_ = build_set_hgos([1, 2, 3], [[1, 2], [3]])
    blk = sys_.index(frozenset({1, 2}))
    sys_.lower = sys_.lower.copy()
    sys_.lower[blk] = sys_.bottom
    return sys_, "LS"


def wra_violation():
    """Granulation missing one block: its approximations become unreachable."""
    sys_ = build_set_hgos([1, 2, 3, 4], [[1, 2], [3, 4]])
    sys_.granules = sys_.granules.copy()
    sys_.granules[sys_.index(frozenset({3, 4}))] = False
    return sys_, "WRA"


def fu_violation():
    """Top is itself a granule, so no proper definite upper bound exists."""
    elements = ["bot", "mid", "top"]
    le = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    join = np.array([[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    meet = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    lower = np.array([0, 0, 2])
    upper = np.array([0, 2, 2])
    granules = np.array([True, False, True])
    sys_ = FinitePartialSystem(
        elements=elements,
        parthood=le.copy(),
        order=le,
        join=join,
        meet=meet,
        lower=lower,
        upper=upper,
        bottom=0,
        top=2,
        granules=granules,
    )
    return sys_, "FU"


def _lattice(elements, covers, granules):
    """The lattice on elements generated by the (lower, upper) cover pairs.

    Parthood and order are the lattice order, join and meet its least upper
    and greatest lower bounds, lower and upper the identity, and the named
    granules are flagged.
    """
    n = len(elements)
    pos = {el: i for i, el in enumerate(elements)}
    le = np.eye(n, dtype=bool)
    for lo, hi in covers:
        le[pos[lo], pos[hi]] = True
    for k in range(n):  # transitive closure
        le |= le[:, [k]] & le[[k], :]

    def bound(common, least):
        # the common bound that lies below (least) or above every other one
        return next(k for k in np.flatnonzero(common) if (le[k] if least else le[:, k])[common].all())

    join = np.array([[bound(le[i] & le[j], True) for j in range(n)] for i in range(n)])
    meet = np.array([[bound(le[:, i] & le[:, j], False) for j in range(n)] for i in range(n)])
    return FinitePartialSystem(
        elements=list(elements),
        parthood=le.copy(),
        order=le,
        join=join,
        meet=meet,
        lower=np.arange(n),
        upper=np.arange(n),
        bottom=0,
        top=n - 1,
        granules=np.isin(elements, granules),
    )


def n5_lattice():
    """The pentagon: a < c, and b incomparable to both."""
    covers = [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")]
    return _lattice(["bot", "a", "b", "c", "top"], covers, ["a", "b", "c"]), ("G3", "G4")


def m3_lattice():
    """The diamond: three pairwise incomparable atoms."""
    covers = [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"]
    return _lattice(["bot", "a", "b", "c", "top"], covers, ["a", "b", "c"]), ("G3", "G4")


DISTRIBUTIVITY_VIOLATIONS = (n5_lattice, m3_lattice)

ALL_VIOLATIONS = (
    pt2_violation,
    ul1_violation,
    tb_violation,
    ls_violation,
    wra_violation,
    fu_violation,
)


def set_partitions(items):
    """All set partitions of a list, each as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part
