"""Finite-model checking for granular operator space axioms.

A :class:`FinitePartialSystem` carries explicit tables (parthood, order,
partial join/meet, lower/upper operators, granule flags) over a small finite
universe.  Axioms are decided by exhaustive quantification, with the
weak-equality convention for the lattice laws: a law instance only counts
when both terms are defined.  On top of that sit the admissibility checks for
granulations (WRA / LS / FU), the fixed-point machinery for self-determining
granule operators, and a builder for powerset systems induced by a
partition or cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ball_kmeans import Dataset, _integer
from .metrics import DistanceFn, _blocks, _first_true, euclidean, row_distances

__all__ = [
    "FinitePartialSystem",
    "AxiomSuite",
    "AxiomResult",
    "MashReport",
    "AdmissibleReport",
    "EggsReport",
    "GranuleOperator",
    "StructureError",
    "DivergenceError",
    "BudgetError",
    "UNDEFINED",
    "check_mash",
    "check_admissible",
    "iterate_to_fixpoint",
    "is_existential_granule",
    "check_eggs",
    "build_set_hgos",
    "identity_operator",
    "ball_refinement_operator",
    "parse_system_file",
    "format_system_file",
]

UNDEFINED = -1
EGGS_LIMIT = 20  # check_eggs iterates the 2^|top| subsets of top up to this many elements


class StructureError(ValueError):
    """Malformed system tables."""


class DivergenceError(RuntimeError):
    """An operator trajectory failed to stabilize within the step budget."""

    def __init__(self, message: str, trajectory: list):
        super().__init__(message)
        self.trajectory = trajectory


class BudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


@dataclass
class FinitePartialSystem:
    """Tables of a partial algebraic system over a finite universe.

    ``join``/``meet`` map index pairs to an element index or ``UNDEFINED``;
    ``lower``/``upper`` are total unary maps; ``parthood`` and ``order`` are
    boolean relation tables.  ``granules`` flags the distinguished elements.
    """

    elements: list
    parthood: np.ndarray
    order: np.ndarray
    join: np.ndarray
    meet: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    bottom: int
    top: int
    granules: np.ndarray

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise StructureError("universe must be non-empty")
        self.parthood = np.asarray(self.parthood, dtype=bool)
        self.order = np.asarray(self.order, dtype=bool)
        self.join = np.asarray(self.join, dtype=int)
        self.meet = np.asarray(self.meet, dtype=int)
        self.lower = np.asarray(self.lower, dtype=int)
        self.upper = np.asarray(self.upper, dtype=int)
        self.granules = np.asarray(self.granules, dtype=bool)
        for name, table, shape in (
            ("parthood", self.parthood, (n, n)),
            ("order", self.order, (n, n)),
            ("join", self.join, (n, n)),
            ("meet", self.meet, (n, n)),
            ("lower", self.lower, (n,)),
            ("upper", self.upper, (n,)),
            ("granules", self.granules, (n,)),
        ):
            if table.shape != shape:
                raise StructureError(f"{name} table has shape {table.shape}, want {shape}")
        for name, table in (("join", self.join), ("meet", self.meet)):
            if ((table < UNDEFINED) | (table >= n)).any():
                raise StructureError(f"{name} entries must be element indices or undefined")
        for name, table in (("lower", self.lower), ("upper", self.upper)):
            if ((table < 0) | (table >= n)).any():
                raise StructureError(f"{name} must be total into the universe")
        if not (0 <= self.bottom < n and 0 <= self.top < n):
            raise StructureError("bottom/top must be universe elements")

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self.elements.index(element)

    def granule_indices(self) -> np.ndarray:
        return np.flatnonzero(self.granules)


_ALL_AXIOMS = (
    "PT1", "PT2", "G1", "G2", "G3", "G4", "G5",
    "UL1", "UL1*", "UL2", "UL3", "TB", "WRA", "LS", "FU",
)


@dataclass(frozen=True)
class AxiomSuite:
    """A selection of axioms; presets follow the named system variants."""

    axioms: frozenset

    def __post_init__(self):
        unknown = self.axioms - set(_ALL_AXIOMS)
        if unknown:
            raise ValueError(f"unknown axioms: {sorted(unknown)}")

    @classmethod
    def mash(cls) -> "AxiomSuite":
        return cls(frozenset({"PT1", "PT2", "G1", "G2", "G3", "G4", "G5", "UL1", "UL2", "UL3", "TB"}))

    @classmethod
    def ggs(cls) -> "AxiomSuite":
        return cls(cls.mash().axioms | {"WRA", "LS", "FU"})

    @classmethod
    def pre_ggs(cls) -> "AxiomSuite":
        return cls(cls.ggs().axioms - {"PT2"})

    @classmethod
    def pre_star_ggs(cls) -> "AxiomSuite":
        # UL1 additionally loses the "lower approximation is a part" clause
        return cls((cls.pre_ggs().axioms - {"UL1"}) | {"UL1*"})

    @classmethod
    def named(cls, name: str) -> "AxiomSuite":
        table = {
            "mash": cls.mash,
            "ggs": cls.ggs,
            "pre-ggs": cls.pre_ggs,
            "pre-star-ggs": cls.pre_star_ggs,
        }
        if name not in table:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(table)}")
        return table[name]()


@dataclass
class AxiomResult:
    passed: bool
    witness: Optional[tuple] = None


@dataclass
class MashReport:
    results: dict

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failed(self) -> list[str]:
        return sorted(name for name, r in self.results.items() if not r.passed)


def _axiom_result(viol, sys: FinitePartialSystem) -> AxiomResult:
    """Passed iff the case grid has no True; the witness is the elements at its first True."""
    idx, _ = _first_true(viol)
    return AxiomResult(idx is None, None if idx is None else tuple(sys.elements[t] for t in idx))


def _distributivity_violations(inner: np.ndarray, outer: np.ndarray):
    """Masks of the (a, b, c) where (a inner b) outer c and (a outer c) inner
    (b outer c) are both defined and differ, a block of first operands a at a time.

    The tables are padded as in :func:`check_mash`.  Memory is O(n^2) per
    block and no (n, n, n) array is built.
    """
    n = len(inner) - 1
    ab = inner[:n, :n]
    oc = outer[:n, :n].astype(np.intp)
    inner_flat = inner.ravel()
    for r in _blocks(n, n * n):
        lhs = outer[ab[r]][:, :, :n]
        rhs = inner_flat.take(oc[r, None, :] * (n + 1) + oc)
        yield (lhs != rhs) & (lhs < n) & (rhs < n)


def check_mash(sys: FinitePartialSystem, suite: AxiomSuite = None) -> MashReport:
    """Decide each selected axiom by exhaustive quantification.

    Witnesses are lexicographically minimal in element order.  The lattice
    laws use weak equality: instances with an undefined side are vacuous.
    """
    if suite is None:
        suite = AxiomSuite.mash()
    n = sys.n
    p = sys.parthood
    le = sys.order
    jn = sys.join
    mt = sys.meet
    lo = sys.lower
    up = sys.upper
    ar = np.arange(n)
    # an undefined row and column appended, and undefined as index n, so that
    # lookups propagate it; int16 holds n for every system build_set_hgos makes
    dtype = np.int16 if n < 2**15 else np.int64
    jn_p, mt_p = (np.pad(np.where(t < 0, n, t), (0, 1), constant_values=n).astype(dtype) for t in (jn, mt))
    adm = check_admissible(sys) if suite.axioms & {"WRA", "LS", "FU"} else None
    results: dict[str, AxiomResult] = {}

    def put(name, viol):
        results[name] = _axiom_result(viol, sys)

    for ax in sorted(suite.axioms):
        if ax == "PT1":
            put("PT1", ~p[ar, ar])
        elif ax == "PT2":
            put("PT2", p & p.T & ~np.eye(n, dtype=bool))
        elif ax == "G1":  # the join table's first asymmetry, else the meet table's
            viols = [(tbl >= 0) & (tbl.T >= 0) & (tbl != tbl.T) for tbl in (jn, mt)]
            put("G1", next((v for v in viols if v.any()), viols[1]))
        elif ax == "G2":
            a = ar[:, None]
            absorb1 = mt_p[jn_p[:n, :n], a]  # (a v b) ^ a
            absorb2 = jn_p[mt_p[:n, :n], a]  # (a ^ b) v a
            viol = ((absorb1 < n) & (absorb1 != a)) | ((absorb2 < n) & (absorb2 != a))
            put("G2", viol)
        elif ax in ("G3", "G4"):
            inner, outer = (mt_p, jn_p) if ax == "G3" else (jn_p, mt_p)
            put(ax, _distributivity_violations(inner, outer))
        elif ax == "G5":
            join_eq = jn == ar[None, :]   # a v b = b (defined and equal)
            meet_eq = mt == ar[:, None]   # a ^ b = a
            put("G5", (le ^ join_eq) | (join_eq ^ meet_eq))
        elif ax in ("UL1", "UL1*"):
            viol = (lo[lo] != lo) | ~p[up, up[up]]
            if ax == "UL1":
                viol = viol | ~p[lo, ar]
            put(ax, viol)
        elif ax == "UL2":
            put("UL2", p & ~(p[np.ix_(lo, lo)] & p[np.ix_(up, up)]))
        elif ax == "UL3":
            ok = (
                lo[sys.bottom] == sys.bottom
                and up[sys.bottom] == sys.bottom
                and p[lo[sys.top], sys.top]
                and p[up[sys.top], sys.top]
            )
            results["UL3"] = AxiomResult(bool(ok), None if ok else (sys.elements[sys.bottom], sys.elements[sys.top]))
        elif ax == "TB":
            put("TB", ~(p[sys.bottom, :] & p[:, sys.top]))
        elif ax in ("WRA", "LS", "FU"):
            results[ax] = getattr(adm, ax.lower())
    return MashReport(results)


@dataclass
class AdmissibleReport:
    wra: AxiomResult
    ls: AxiomResult
    fu: AxiomResult

    @property
    def ok(self) -> bool:
        return self.wra.passed and self.ls.passed and self.fu.passed

    def as_dict(self) -> dict:
        return {"WRA": self.wra.passed, "LS": self.ls.passed, "FU": self.fu.passed}


def _join_closure(sys: FinitePartialSystem, seeds: np.ndarray) -> np.ndarray:
    reach = np.zeros(sys.n, dtype=bool)
    reach[seeds] = True
    changed = True
    while changed:
        changed = False
        idx = np.flatnonzero(reach)
        vals = sys.join[np.ix_(idx, idx)]
        vals = vals[vals >= 0]
        new = np.unique(vals)
        fresh = new[~reach[new]]
        if fresh.size:
            reach[fresh] = True
            changed = True
    return reach


def check_admissible(
    sys: FinitePartialSystem,
    granules: Optional[Sequence[int]] = None,
) -> AdmissibleReport:
    """Check the three granulation admissibility conditions.

    WRA is decided by a sound-but-incomplete term search: iterated joins of
    granules, extended with meets of pairs from that closure
    (needed already to reach the empty set from two disjoint blocks).  LS and
    FU are checked exactly per their definitions; FU demands proper parthood
    below a definite element.
    """
    if granules is None:
        gidx = sys.granule_indices()
    else:
        gidx = np.asarray(sorted(granules), dtype=int)
    n = sys.n
    p = sys.parthood
    lo, up = sys.lower, sys.upper

    if gidx.size == 0:
        missing = AxiomResult(False, ("no granules",))
        return AdmissibleReport(missing, missing, missing)

    reach = _join_closure(sys, gidx)
    idx = np.flatnonzero(reach)
    vals = sys.meet[np.ix_(idx, idx)]
    reach[vals[vals >= 0]] = True
    wra = _axiom_result(~(reach[lo] & reach[up]), sys)
    ls = _axiom_result(sys.granules[:, None] & p & ~p[:, lo], sys)

    ar = np.arange(n)
    definite = (lo == ar) & (up == ar)
    # below[i, e]: granule gidx[i] is a proper part of the definite element e
    below = (p & ~p.T)[gidx] & definite
    fu_viol = np.zeros((n, n), dtype=bool)
    fu_viol[np.ix_(gidx, gidx)] = ~(below @ below.T)
    fu = _axiom_result(fu_viol, sys)
    return AdmissibleReport(wra, ls, fu)


@dataclass(frozen=True)
class GranuleOperator:
    """A self-determining operator on subsets of a finite universe."""

    name: str
    apply: Callable[[frozenset], frozenset]

    def __call__(self, e: frozenset) -> frozenset:
        return self.apply(e)


def identity_operator() -> GranuleOperator:
    return GranuleOperator(name="identity", apply=lambda e: frozenset(e))


def ball_refinement_operator(ds: Dataset, distance: DistanceFn = None) -> GranuleOperator:
    """Recompute the seed's ball (mean center, max radius) and collect covered points.

    Every input set is contained in its image, so trajectories grow
    monotonically and stabilize within |universe| steps.
    """
    fn = distance if distance is not None else euclidean()

    def apply(e: frozenset) -> frozenset:
        if not e:
            return frozenset()
        idx = np.array(sorted(int(i) for i in e), dtype=int)
        dist = row_distances(fn, ds.points, ds.points[idx].mean(axis=0))
        return frozenset(int(i) for i in np.flatnonzero(dist <= dist[idx].max()))

    return GranuleOperator(name="ball-refinement", apply=apply)


def iterate_to_fixpoint(
    op: GranuleOperator, e: frozenset, max_n: int
) -> tuple[int, frozenset]:
    """Least n >= 1 with op^{n+1}(E) = op^n(E), plus the stabilized set.

    Raises :class:`DivergenceError` (carrying the trajectory) when no
    stabilization shows up within max_n applications.
    """
    max_n = _integer(max_n, "max_n")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    e = frozenset(e)
    trajectory = [e]
    current = op(e)
    trajectory.append(current)
    for n in range(1, max_n + 1):
        nxt = op(current)
        trajectory.append(nxt)
        if nxt == current:
            return n, current
        current = nxt
    raise DivergenceError(
        f"no fixed point within {max_n} applications of {op.name}", trajectory
    )


def is_existential_granule(
    g: frozenset,
    op: GranuleOperator,
    universe: Sequence,
    *,
    seeds: Optional[Sequence[frozenset]] = None,
) -> bool:
    """True iff some subset of G stabilizes under the operator to exactly G.

    A trajectory stops only at a fixed point, and a fixed point is its own
    seed, so without ``seeds`` this is the one test op(G) = G.  Given seeds,
    only those inside G are iterated, each for |universe| + 1 applications.
    """
    g = frozenset(g)
    if op(g) != g:
        return False
    if seeds is None:
        return True
    limit = max(len(universe), 1) + 1
    for e in map(frozenset, seeds):
        if not e <= g:
            continue
        try:
            _, limit_set = iterate_to_fixpoint(op, e, limit)
        except DivergenceError:
            continue
        if limit_set == g:
            return True
    return False


@dataclass
class EggsReport:
    g1: Optional[bool]
    g2: Optional[bool]
    indeterminate: bool
    witness: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return bool(self.g1) and bool(self.g2) and not self.indeterminate


def check_eggs(sys: FinitePartialSystem, op: GranuleOperator) -> EggsReport:
    """Existential-variant conditions: flags match stabilized images, all trajectories stabilize.

    Universe elements must be subsets (frozensets) of the top element; they
    are checked before the operator is applied.  G2 iterates every subset of
    top, in mask order, and its witness is the first that diverges.  Once all
    stabilize, an element is a stabilized image iff it is a fixed point, so
    G1 takes one application per element.  A top of more than
    ``EGGS_LIMIT`` elements yields an indeterminate report rather than a
    silent verdict.
    """
    base = sys.elements[sys.top]
    if not all(isinstance(el, frozenset) for el in sys.elements):
        raise TypeError("eggs checking needs subset-valued universe elements")
    for el in sys.elements:
        if not el <= base:
            raise StructureError(f"element {_render_element(el)} is not a subset of top")
    if len(base) > EGGS_LIMIT:
        return EggsReport(g1=None, g2=None, indeterminate=True)
    members = sorted(base)
    half = len(members) // 2  # mask order, holding the unions of each half of the base, not all 2^n
    low = _unions([{m} for m in members[:half]])
    for high in _unions([{m} for m in members[half:]]):
        for lo in low:
            e = lo | high
            try:
                iterate_to_fixpoint(op, e, len(base) + 1)
            except DivergenceError:
                return EggsReport(g1=None, g2=False, indeterminate=False, witness=(e,))
    for el, flagged in zip(sys.elements, sys.granules):
        if flagged != (op(el) == el):
            return EggsReport(g1=False, g2=True, indeterminate=False, witness=(el,))
    return EggsReport(g1=True, g2=True, indeterminate=False)


def _unions(parts: Sequence) -> list[frozenset]:
    """The union of every sub-collection of parts; entry m joins the parts whose bit is set in m."""
    out = [frozenset()]
    for part in parts:
        out += [u | part for u in out]
    return out


def _block_images(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lower and upper images of a stack of 0/1 rows under a (k, n) 0/1 block table, stacked as (2, m, n).

    Lower joins the blocks that miss a row's complement, upper the blocks that meet it.  The products
    count in float32 for BLAS speed: a sum of 0/1 terms is zero exactly when every term is.
    """
    blocks = table.astype(np.float32)
    picked = np.stack((~rows @ blocks.T == 0, rows @ blocks.T > 0))
    return picked @ blocks > 0


def build_set_hgos(universe_set: Sequence, granulation: Sequence[Sequence]) -> FinitePartialSystem:
    """Powerset system with union/meet as the lattice operations.

    ``granulation`` must cover the universe set (partition or cover).  Lower
    approximation of x is the union of granules inside x, upper the union of
    granules meeting x; bottom is the empty set, top the universe set, and
    the granule flags mark the granulation.
    """
    base = sorted(universe_set)
    if len(base) > 10:
        raise BudgetError("powerset construction capped at 10 base elements")
    if len(set(base)) != len(base):
        raise StructureError("universe set has repeated elements")
    blocks = [frozenset(b) for b in granulation]
    covered = frozenset().union(*blocks) if blocks else frozenset()
    if covered != frozenset(base):
        raise StructureError("granulation does not cover the universe set")
    # element m is the subset with mask m over base, the 0/1 row of its bits; the tables are mask arithmetic
    elements = _unions([{el} for el in base])
    ar = np.arange(len(elements))
    bits = 1 << np.arange(len(base))
    table = np.array([[el in g for el in base] for g in blocks], dtype=bool).reshape(len(blocks), len(base))
    subset = (ar[:, None] & ~ar) == 0
    granules = np.zeros(len(elements), dtype=bool)
    granules[table @ bits] = True
    lower, upper = _block_images(table, (ar[:, None] & bits) != 0) @ bits
    return FinitePartialSystem(
        elements=elements,
        parthood=subset,
        order=subset.copy(),
        join=ar[:, None] | ar,
        meet=ar[:, None] & ar,
        lower=lower,
        upper=upper,
        bottom=0,
        top=len(elements) - 1,
        granules=granules,
    )


# ---------------------------------------------------------------------------
# plain-text system files


def _render_element(el) -> str:
    if isinstance(el, frozenset):
        return "{" + ",".join(str(x) for x in sorted(el)) + "}"
    return str(el)


def format_system_file(sys: FinitePartialSystem) -> str:
    """Serialize a system to the tabular text format (see parse_system_file)."""
    names = [_render_element(e) for e in sys.elements]
    lines = ["universe: " + " ".join(names)]
    lines.append("bottom: " + names[sys.bottom])
    lines.append("top: " + names[sys.top])
    gn = [names[i] for i in sys.granule_indices()]
    if gn:
        lines.append("granules: " + " ".join(gn))
    for label, table in (("parthood", sys.parthood), ("order", sys.order)):
        lines.append(label + ":")
        for row in table.astype(int):
            lines.append(" ".join(str(v) for v in row))
    for label, table in (("join", sys.join), ("meet", sys.meet)):
        lines.append(label + ":")
        for row in table:
            lines.append(" ".join("-" if v == UNDEFINED else names[v] for v in row))
    lines.append("lower: " + " ".join(names[v] for v in sys.lower))
    lines.append("upper: " + " ".join(names[v] for v in sys.upper))
    return "\n".join(lines) + "\n"


def parse_system_file(text: str) -> FinitePartialSystem:
    """Parse the plain-text tabular system format.

    Sections: ``universe:``, ``bottom:``, ``top:``, optional ``granules:``,
    then ``parthood:`` and ``order:`` as 0/1 grids and ``join:``/``meet:`` as
    element-name grids with ``-`` for undefined entries, and ``lower:`` /
    ``upper:`` as single rows of element names.  ``#`` starts a comment.
    """
    lines = [(no + 1, ln.split("#", 1)[0].rstrip()) for no, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln.strip()]
    names: list[str] = []
    name_pos: dict[str, int] = {}
    bottom = top = None
    gran_names: list[str] = []
    matrices: dict[str, list[list[str]]] = {}
    unary: dict[str, list[str]] = {}
    pending = None
    for no, ln in lines:
        stripped = ln.strip()
        key = stripped.split(":", 1)[0].lower() if ":" in stripped else None
        if key in ("universe", "bottom", "top", "granules", "lower", "upper"):
            value = stripped.split(":", 1)[1].strip()
            pending = None
            if key == "universe":
                names = value.split()
                if len(set(names)) != len(names):
                    raise StructureError(f"line {no}: duplicate universe names")
                name_pos = {nm: i for i, nm in enumerate(names)}
            elif key == "bottom":
                bottom = value
            elif key == "top":
                top = value
            elif key == "granules":
                gran_names = value.split()
            else:
                unary[key] = value.split()
        elif key in ("parthood", "order", "join", "meet"):
            pending = key
            matrices[pending] = []
        elif pending is not None:
            matrices[pending].append(stripped.split())
        else:
            raise StructureError(f"line {no}: unexpected content {stripped!r}")
    if not names:
        raise StructureError("missing universe section")
    n = len(names)

    def need(section):
        if section not in matrices or len(matrices[section]) != n:
            raise StructureError(f"section {section!r} must have {n} rows")
        for row in matrices[section]:
            if len(row) != n:
                raise StructureError(f"section {section!r} has a ragged row")
        return matrices[section]

    def to_index(token, where):
        if token not in name_pos:
            raise StructureError(f"{where}: unknown element {token!r}")
        return name_pos[token]

    def bool_grid(section):
        rows = need(section)
        out = np.zeros((n, n), dtype=bool)
        for i, row in enumerate(rows):
            for j, tok in enumerate(row):
                if tok not in ("0", "1"):
                    raise StructureError(f"section {section!r}: entries must be 0/1, got {tok!r}")
                out[i, j] = tok == "1"
        return out

    def op_grid(section):
        rows = need(section)
        out = np.full((n, n), UNDEFINED, dtype=int)
        for i, row in enumerate(rows):
            for j, tok in enumerate(row):
                if tok != "-":
                    out[i, j] = to_index(tok, f"section {section!r}")
        return out

    def unary_row(section):
        if section not in unary:
            raise StructureError(f"missing section {section!r}")
        row = unary[section]
        if len(row) != n:
            raise StructureError(f"section {section!r} must list {n} values")
        return np.array([to_index(tok, f"section {section!r}") for tok in row], dtype=int)

    if bottom is None or top is None:
        raise StructureError("missing bottom/top declarations")
    granules = np.zeros(n, dtype=bool)
    for gname in gran_names:
        granules[to_index(gname, "granules")] = True
    return FinitePartialSystem(
        elements=list(names),
        parthood=bool_grid("parthood"),
        order=bool_grid("order"),
        join=op_grid("join"),
        meet=op_grid("meet"),
        lower=unary_row("lower"),
        upper=unary_row("upper"),
        bottom=to_index(bottom, "bottom"),
        top=to_index(top, "top"),
        granules=granules,
    )
