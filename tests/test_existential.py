import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from granule import existential, metrics
from granule.ball_kmeans import BkmConfig, Dataset, Init, run
from granule.existential import (
    AxiomResult,
    AxiomSuite,
    BudgetError,
    DivergenceError,
    EggsReport,
    FinitePartialSystem,
    GranuleOperator,
    MashReport,
    StructureError,
    UNDEFINED,
    _join_closure,
    ball_refinement_operator,
    build_set_hgos,
    check_admissible,
    check_eggs,
    check_mash,
    format_system_file,
    identity_operator,
    is_existential_granule,
    iterate_to_fixpoint,
    parse_system_file,
)

from fixtures_axioms import (
    ALL_VIOLATIONS,
    DISTRIBUTIVITY_VIOLATIONS,
    pt2_violation,
    set_partitions,
)

SUITES = ("mash", "ggs", "pre-ggs", "pre-star-ggs")


def pairwise_build_set_hgos(universe_set, granulation):
    """Reference: the powerset system built with one set operation per element pair."""
    base = sorted(universe_set)
    blocks = [frozenset(b) for b in granulation]
    elements = [
        frozenset(base[b] for b in range(len(base)) if mask >> b & 1)
        for mask in range(2 ** len(base))
    ]
    pos = {el: i for i, el in enumerate(elements)}
    n = len(elements)
    subset = np.zeros((n, n), dtype=bool)
    join = np.empty((n, n), dtype=int)
    meet = np.empty((n, n), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            subset[i, j] = a <= b
            join[i, j] = pos[a | b]
            meet[i, j] = pos[a & b]
    lower = np.empty(n, dtype=int)
    upper = np.empty(n, dtype=int)
    for i, a in enumerate(elements):
        lower[i] = pos[frozenset().union(*(g for g in blocks if g <= a))]
        upper[i] = pos[frozenset().union(*(g for g in blocks if g & a))]
    granules = np.zeros(n, dtype=bool)
    for g in blocks:
        granules[pos[g]] = True
    return FinitePartialSystem(
        elements=elements,
        parthood=subset,
        order=subset.copy(),
        join=join,
        meet=meet,
        lower=lower,
        upper=upper,
        bottom=pos[frozenset()],
        top=pos[frozenset(base)],
        granules=granules,
    )


class TestSuites:
    def test_presets(self):
        assert "PT2" in AxiomSuite.mash().axioms
        assert "WRA" in AxiomSuite.ggs().axioms
        assert "PT2" not in AxiomSuite.pre_ggs().axioms
        pre_star = AxiomSuite.pre_star_ggs().axioms
        assert "UL1" not in pre_star and "UL1*" in pre_star

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            AxiomSuite(frozenset({"BOGUS"}))

    def test_named_lookup(self):
        assert AxiomSuite.named("pre-ggs") == AxiomSuite.pre_ggs()
        with pytest.raises(ValueError):
            AxiomSuite.named("nope")


class TestCheckMash:
    def test_two_element_chain_passes(self):
        sys_ = build_set_hgos([1], [[1]])
        assert check_mash(sys_, AxiomSuite.mash()).ok

    def test_pt2_fixture_fails_only_pt2(self):
        sys_, _ = pt2_violation()
        report = check_mash(sys_, AxiomSuite.ggs())
        assert report.failed() == ["PT2"]
        witness = report.results["PT2"].witness
        assert witness is not None and len(witness) == 2

    def test_pre_ggs_ignores_pt2(self):
        sys_, _ = pt2_violation()
        assert check_mash(sys_, AxiomSuite.pre_ggs()).ok

    @pytest.mark.parametrize("builder", ALL_VIOLATIONS, ids=lambda b: b.__name__)
    def test_each_fixture_fails_exactly_its_axiom(self, builder):
        sys_, expected = builder()
        report = check_mash(sys_, AxiomSuite.ggs())
        assert report.failed() == [expected]

    def test_pre_star_never_fails_more_than_ggs(self):
        # UL1* is UL1 minus one clause, so its failures embed into UL1's
        for builder in ALL_VIOLATIONS:
            sys_, _ = builder()
            ggs_failed = set(check_mash(sys_, AxiomSuite.ggs()).failed())
            pre_star_failed = {
                "UL1" if name == "UL1*" else name
                for name in check_mash(sys_, AxiomSuite.pre_star_ggs()).failed()
            }
            assert pre_star_failed <= ggs_failed

    def test_partition_systems_pass_ggs(self):
        for blocks in set_partitions([1, 2, 3, 4]):
            sys_ = build_set_hgos([1, 2, 3, 4], blocks)
            report = check_mash(sys_, AxiomSuite.ggs())
            if len(blocks) >= 2:
                assert report.ok, report.failed()
            else:
                # a lone granule equal to top provably breaks WRA and FU
                assert report.failed() == ["FU", "WRA"]

    def test_partition_systems_pass_ggs_size_six(self):
        base = list(range(1, 7))
        count = 0
        for blocks in set_partitions(base):
            if len(blocks) < 2:
                continue
            sys_ = build_set_hgos(base, blocks)
            assert check_mash(sys_, AxiomSuite.ggs()).ok
            count += 1
        assert count == 202  # Bell(6) minus the single-block partition


class TestDistributivity:
    # witnesses recorded with the (n, n, n) check that the chunked one replaced
    PINNED = {
        "n5_lattice": {"G3": ("b", "c", "a"), "G4": ("a", "b", "c")},
        "m3_lattice": {"G3": ("a", "b", "c"), "G4": ("a", "b", "c")},
    }

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("builder", DISTRIBUTIVITY_VIOLATIONS, ids=lambda b: b.__name__)
    def test_non_distributive_lattices_fail_g3_and_g4(self, builder, suite):
        sys_, expected = builder()
        report = check_mash(sys_, AxiomSuite.named(suite))
        assert report.failed() == list(expected)
        for ax, witness in self.PINNED[builder.__name__].items():
            assert report.results[ax] == AxiomResult(False, witness)


def test_admissibility_computed_once_per_check(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return check_admissible(*args, **kwargs)

    monkeypatch.setattr(existential, "check_admissible", spy)
    sys_ = build_set_hgos([1, 2, 3], [[1, 2], [3]])
    check_mash(sys_, AxiomSuite.ggs())
    assert len(calls) == 1
    check_mash(sys_, AxiomSuite.mash())
    assert len(calls) == 1


def _apply2(table, i, j):
    """table[i, j] with undefined (-1) arguments propagating to undefined."""
    return np.pad(table, ((0, 1), (0, 1)), constant_values=UNDEFINED)[i, j]


def _loop_witness(mask, sys_):
    idx = np.argwhere(mask)
    return AxiomResult(not idx.size, tuple(sys_.elements[int(t)] for t in idx[0]) if idx.size else None)


def loop_distributivity(sys_, ax):
    """Reference: G3 or G4 over whole (n, n, n) index arrays."""
    n = sys_.n
    inner, outer = (sys_.meet, sys_.join) if ax == "G3" else (sys_.join, sys_.meet)
    # (a inner b) outer c  vs  (a outer c) inner (b outer c)
    c_grid = np.broadcast_to(np.arange(n)[None, None, :], (n, n, n))
    lhs = _apply2(outer, inner[:, :, None], c_grid)
    ac = np.broadcast_to(outer[:, None, :], (n, n, n))
    bc = np.broadcast_to(outer[None, :, :], (n, n, n))
    rhs = _apply2(inner, ac, bc)
    return _loop_witness((lhs >= 0) & (rhs >= 0) & (lhs != rhs), sys_)


def loop_absorption(sys_):
    """Reference: G2 through the padded lookups with undefined as -1."""
    n = sys_.n
    a_grid = np.broadcast_to(np.arange(n)[:, None], (n, n))
    absorb1 = _apply2(sys_.meet, sys_.join, a_grid)
    absorb2 = _apply2(sys_.join, sys_.meet, a_grid)
    viol = ((absorb1 >= 0) & (absorb1 != a_grid)) | ((absorb2 >= 0) & (absorb2 != a_grid))
    return _loop_witness(viol, sys_)


def oracle_results(sys_):
    """Every axiom's result: G2-G4 from the reference loops, the admissibility
    conditions from one check_admissible call, the rest one axiom at a time."""
    adm = check_admissible(sys_)
    out = {"G2": loop_absorption(sys_), "G3": loop_distributivity(sys_, "G3"),
           "G4": loop_distributivity(sys_, "G4"),
           "WRA": adm.wra, "LS": adm.ls, "FU": adm.fu}
    for ax in existential._ALL_AXIOMS:
        if ax not in out:
            out[ax] = check_mash(sys_, AxiomSuite(frozenset({ax}))).results[ax]
    return out


def random_system(rng):
    """A system with random tables, or a powerset system with perturbed join/meet tables."""
    if rng.random() < 0.5:
        n = int(rng.integers(1, 9))
        return FinitePartialSystem(
            elements=[f"e{i}" for i in range(n)],
            parthood=rng.random((n, n)) < 0.6,
            order=rng.random((n, n)) < 0.6,
            join=rng.integers(UNDEFINED, n, (n, n)),
            meet=rng.integers(UNDEFINED, n, (n, n)),
            lower=rng.integers(0, n, n),
            upper=rng.integers(0, n, n),
            bottom=int(rng.integers(n)),
            top=int(rng.integers(n)),
            granules=rng.random(n) < 0.4,
        )
    size = int(rng.integers(1, 6))
    blocks = [[x] for x in range(size)] + [
        list(rng.choice(size, int(rng.integers(1, size + 1)), replace=False)) for _ in range(2)
    ]
    sys_ = build_set_hgos(range(size), blocks)
    tables = {}
    for name in ("join", "meet"):
        table = getattr(sys_, name).copy()
        undefined = rng.random(table.shape) < rng.choice([0.0, 0.05, 0.3])
        wrong = rng.random(table.shape) < rng.choice([0.0, 0.01, 0.05])
        table[wrong] = rng.integers(0, sys_.n, int(wrong.sum()))
        table[undefined] = UNDEFINED
        tables[name] = table
    return replace(sys_, **tables)


def oracle_corpus():
    systems = [
        build_set_hgos(range(size), blocks)
        for size in range(1, 6)
        for blocks in set_partitions(list(range(size)))
    ]
    systems += [build_set_hgos(range(6), b) for b in list(set_partitions(list(range(6))))[::10]]
    systems += [builder()[0] for builder in ALL_VIOLATIONS + DISTRIBUTIVITY_VIOLATIONS]
    rng = np.random.default_rng(1302)
    systems += [random_system(rng) for _ in range(230)]
    return systems


class TestDistributivityOracle:
    def test_reports_equal_reference_loops_on_corpus(self, monkeypatch):
        systems = oracle_corpus()
        assert len(systems) >= 300
        failures = {"G2": 0, "G3": 0, "G4": 0}
        for i, sys_ in enumerate(systems):
            want = oracle_results(sys_)
            for ax in failures:
                failures[ax] += not want[ax].passed
            # one row per chunk on every fifth system, so chunk offsets count
            monkeypatch.setattr(metrics, "_CHUNK_ENTRIES", 1 if i % 5 == 0 else 1 << 18)
            for name in SUITES:
                suite = AxiomSuite.named(name)
                expected = MashReport({ax: want[ax] for ax in sorted(suite.axioms)})
                assert repr(check_mash(sys_, suite)) == repr(expected), (i, name)
        assert min(failures.values()) >= 20, failures


class TestPastTheOldCap:
    """Nine base elements, n = 512: the (n, n, n) index arrays of a whole-cube
    check need gigabytes here, the chunked check a few megabytes."""

    BLOCKS = [[0, 1], [2, 3], [4, 5], [6, 7], [8]]

    def test_nine_elements_pass_ggs_in_bounded_memory(self):
        sys_ = build_set_hgos(range(9), self.BLOCKS)
        tracemalloc.start()
        try:
            report = check_mash(sys_, AxiomSuite.ggs())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(report.results) == sorted(AxiomSuite.ggs().axioms)
        assert report.ok, report.failed()
        assert peak < 64 * 2**20

    def test_first_planted_g3_violation_is_reported(self):
        base = build_set_hgos(range(9), self.BLOCKS)
        # meet(x, y) = y for disjoint x, y: the first G3 violation is (x, y, {0}),
        # since (x ^ y) v {0} = y | {0} but (x v {0}) ^ (y v {0}) = {0}, and
        # every instance that reads meet(x, y) has a first operand a >= x
        early = (frozenset({0, 1}), frozenset({2}))
        late = (frozenset({7, 8}), frozenset({6}))

        def planted(*pairs):
            meet = base.meet.copy()
            for x, y in pairs:
                meet[base.index(x), base.index(y)] = base.index(y)
            return replace(base, meet=meet)

        rows = max(1, metrics._CHUNK_ENTRIES // base.n**2)
        assert base.index(early[0]) // rows != base.index(late[0]) // rows
        g3 = AxiomSuite(frozenset({"G3"}))
        zero = frozenset({0})
        assert check_mash(planted(late), g3).results["G3"] == AxiomResult(False, late + (zero,))
        assert check_mash(planted(late, early), g3).results["G3"] == AxiomResult(False, early + (zero,))


class TestAdmissible:
    def test_partition_is_admissible(self):
        sys_ = build_set_hgos([1, 2, 3, 4], [[1, 2], [3, 4]])
        assert check_admissible(sys_).as_dict() == {"WRA": True, "LS": True, "FU": True}

    def test_missing_block_breaks_wra(self):
        sys_ = build_set_hgos([1, 2, 3, 4], [[1, 2], [3, 4]])
        sys_.granules = sys_.granules.copy()
        sys_.granules[sys_.index(frozenset({3, 4}))] = False
        report = check_admissible(sys_)
        assert not report.wra.passed and report.ls.passed and report.fu.passed

    def test_no_granules_fails_everything(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        sys_.granules = np.zeros(sys_.n, dtype=bool)
        report = check_admissible(sys_)
        assert not report.ok

    def test_wra_needs_meets_for_empty_set(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        joins = _join_closure(sys_, sys_.granule_indices())
        assert not joins[sys_.index(frozenset())]  # the empty set is a meet of two blocks
        assert check_admissible(sys_).wra.passed


def pairwise_fu(sys_, gidx):
    """Reference: FU by one definite-element test per granule pair, in row-major order."""
    p = sys_.parthood
    proper = p & ~p.T
    ar = np.arange(sys_.n)
    definite = (sys_.lower == ar) & (sys_.upper == ar)
    for gx in gidx:
        for ga in gidx:
            if not (proper[gx] & proper[ga] & definite).any():
                return False, (sys_.elements[int(gx)], sys_.elements[int(ga)])
    return True, None


def test_fu_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    systems = [builder()[0] for builder in ALL_VIOLATIONS]
    systems += [build_set_hgos([1, 2, 3, 4], blocks) for blocks in set_partitions([1, 2, 3, 4])]
    failures = 0
    for sys_ in systems:
        choices = [sys_.granule_indices()] + [
            np.flatnonzero(rng.random(sys_.n) < 0.3) for _ in range(4)
        ]
        for gidx in choices:
            if gidx.size == 0:
                continue
            fu = check_admissible(sys_, granules=gidx.tolist()).fu
            assert (fu.passed, fu.witness) == pairwise_fu(sys_, gidx)
            failures += not fu.passed
    assert failures >= 20


class TestSetHgos:
    def test_pawlak_examples(self):
        sys_ = build_set_hgos([1, 2, 3], [[1, 2], [3]])
        lower = {e: sys_.elements[sys_.lower[i]] for i, e in enumerate(sys_.elements)}
        upper = {e: sys_.elements[sys_.upper[i]] for i, e in enumerate(sys_.elements)}
        assert lower[frozenset({1, 3})] == frozenset({3})
        assert upper[frozenset({1, 3})] == frozenset({1, 2, 3})
        assert lower[frozenset()] == frozenset()
        assert upper[frozenset({1, 2, 3})] == frozenset({1, 2, 3})

    def test_blocks_are_definite(self):
        sys_ = build_set_hgos([1, 2, 3], [[1, 2], [3]])
        for i in sys_.granule_indices():
            assert sys_.lower[i] == i and sys_.upper[i] == i

    def test_non_covering_granulation_rejected(self):
        with pytest.raises(StructureError):
            build_set_hgos([1, 2, 3], [[1, 2]])

    def test_size_guard(self):
        with pytest.raises(BudgetError):
            build_set_hgos(list(range(11)), [list(range(11))])

    def test_repeated_elements_rejected(self):
        with pytest.raises(StructureError):
            build_set_hgos([1, 1, 2], [[1], [2]])

    def test_matches_pairwise_builder(self):
        cases = [
            (list(range(1, size + 1)), blocks)
            for size in range(1, 6)
            for blocks in set_partitions(list(range(1, size + 1)))
        ]
        cases += [
            ([3, 1, 2, 5], [[3, 1], [1, 2], [2, 5]]),
            ([4, 2, 3, 1, 5], [[1, 2, 3], [3, 4], [4, 5, 1]]),
            ([2, 1, 3], [[1, 2], [], [2, 3]]),
            (["b", "c", "a"], [["a", "b"], ["b", "c"], ["a", "b", "c"]]),
            ([], []),
        ]
        assert len(cases) == 1 + 2 + 5 + 15 + 52 + 5
        for base, blocks in cases:
            got = build_set_hgos(base, blocks)
            want = pairwise_build_set_hgos(base, blocks)
            assert got.elements == want.elements
            assert (got.bottom, got.top) == (want.bottom, want.top)
            for name in ("parthood", "order", "join", "meet", "lower", "upper", "granules"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (base, blocks, name)


def counting(op):
    """The operator with each input it is applied to appended to a list."""
    calls = []
    return GranuleOperator(op.name, lambda e: calls.append(e) or op(e)), calls


class TestFixpoints:
    @pytest.mark.parametrize("max_n", [True, 2.5, "3", None])
    def test_non_integral_max_n_is_refused(self, max_n):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            iterate_to_fixpoint(identity_operator(), frozenset({1}), max_n)

    def test_integral_float_max_n_runs(self):
        assert iterate_to_fixpoint(identity_operator(), frozenset({1}), 2.0) == (1, frozenset({1}))

    def test_identity_operator(self):
        n, g = iterate_to_fixpoint(identity_operator(), frozenset({1, 2}), 5)
        assert n == 1 and g == frozenset({1, 2})

    def test_monotone_closure_stabilizes_within_universe(self):
        universe = list(range(6))
        grow = GranuleOperator(
            name="grow", apply=lambda e: frozenset(e) | {min(set(universe) - set(e))} if set(universe) - set(e) else frozenset(e)
        )
        for start in (frozenset(), frozenset({3})):
            n, g = iterate_to_fixpoint(grow, start, len(universe) + 1)
            assert g == frozenset(universe)
            assert n <= len(universe) + 1

    def test_two_cycle_diverges(self):
        universe = frozenset({1, 2})
        flip = GranuleOperator(name="flip", apply=lambda e: universe - e)
        with pytest.raises(DivergenceError) as exc:
            iterate_to_fixpoint(flip, frozenset(), 10)
        assert len(exc.value.trajectory) > 2

    def test_rerun_from_fixpoint_is_immediate(self):
        ds = Dataset(np.array([[0.0], [0.5], [10.0]]))
        op = ball_refinement_operator(ds)
        _, g = iterate_to_fixpoint(op, frozenset({0}), 5)
        n2, g2 = iterate_to_fixpoint(op, g, 5)
        assert n2 == 1 and g2 == g


class TestExistentialGranule:
    def test_identity_always_existential(self):
        assert is_existential_granule(frozenset({1, 2}), identity_operator(), [1, 2, 3])

    def test_ball_refinement_on_separated_cluster(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(0, 0.3, (5, 2)), rng.normal(9, 0.3, (5, 2))])
        ds = Dataset(x)
        clustering, _ = run(ds, BkmConfig(k=2, seed=0, init=Init.PLUS_PLUS))
        op = ball_refinement_operator(ds)
        for members in [np.flatnonzero(clustering.assignments == i) for i in range(clustering.k)]:
            g = frozenset(int(i) for i in members)
            assert is_existential_granule(g, op, range(ds.n), seeds=[g])

    def test_unreachable_set_is_not_existential(self):
        ds = Dataset(np.array([[float(t)] for t in range(10)]))
        op = ball_refinement_operator(ds)
        g = frozenset({0, 9})  # its own ball swallows every point in between
        assert not is_existential_granule(g, op, range(10))

    def test_large_set_decided_without_seeds(self):
        big = frozenset(range(25))
        assert is_existential_granule(big, identity_operator(), range(25))

    @pytest.mark.parametrize("size", [12, 16, 100])
    def test_one_application_without_seeds(self, size):
        ds = Dataset(np.arange(2.0 * size).reshape(size, 2))
        op, calls = counting(ball_refinement_operator(ds))
        assert is_existential_granule(frozenset(range(size)), op, range(size))
        assert len(calls) == 1
        op, calls = counting(ball_refinement_operator(ds))
        assert not is_existential_granule(frozenset({0, size - 1}), op, range(size))
        assert len(calls) == 1


class TestEggs:
    def test_identity_flags_everything(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        sys_.granules = np.ones(sys_.n, dtype=bool)
        report = check_eggs(sys_, identity_operator())
        assert report.ok

    def test_flagging_non_image_fails_g1(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        full = frozenset({1, 2})
        to_top = GranuleOperator(name="to-top", apply=lambda e: full)
        report = check_eggs(sys_, to_top)  # blocks are flagged but not images
        assert report.g2 and not report.g1

    def test_two_cycle_fails_g2(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        full = frozenset({1, 2})
        flip = GranuleOperator(name="flip", apply=lambda e: full - e)
        report = check_eggs(sys_, flip)
        assert report.g2 is False

    def test_non_subset_universe_rejected(self):
        sys_, _ = None, None
        abstract = FinitePartialSystem(
            elements=["a"],
            parthood=np.ones((1, 1), dtype=bool),
            order=np.ones((1, 1), dtype=bool),
            join=np.zeros((1, 1), dtype=int),
            meet=np.zeros((1, 1), dtype=int),
            lower=np.zeros(1, dtype=int),
            upper=np.zeros(1, dtype=int),
            bottom=0,
            top=0,
            granules=np.ones(1, dtype=bool),
        )
        with pytest.raises(TypeError):
            check_eggs(abstract, identity_operator())


def table_system(elements, top, granules):
    """A system over the given elements whose tables only need to be well formed."""
    n = len(elements)
    zeros = np.zeros((n, n), dtype=int)
    return FinitePartialSystem(
        elements=list(elements),
        parthood=np.eye(n, dtype=bool),
        order=np.eye(n, dtype=bool),
        join=zeros,
        meet=zeros,
        lower=np.arange(n),
        upper=np.arange(n),
        bottom=0,
        top=top,
        granules=np.asarray(granules, dtype=bool),
    )


class TestEggsInputs:
    def test_element_outside_top_is_refused(self):
        op, calls = counting(identity_operator())
        sys_ = table_system([frozenset(), frozenset({1}), frozenset({2})], 1, [True, True, True])
        with pytest.raises(StructureError, match=r"element \{2\} is not a subset of top"):
            check_eggs(sys_, op)
        assert calls == []

    def test_abstract_element_after_a_g1_mismatch_is_refused(self):
        # the empty set is a fixed point left unflagged, so G1 fails at the first element
        sys_ = table_system([frozenset(), frozenset({1}), "a"], 1, [False, True, True])
        with pytest.raises(TypeError, match="subset-valued"):
            check_eggs(sys_, identity_operator())
        assert oracle_check_eggs(sys_, identity_operator()) == EggsReport(False, True, False, (frozenset(),))

    def test_top_past_the_limit_is_indeterminate(self):
        op, calls = counting(identity_operator())
        top = frozenset(range(existential.EGGS_LIMIT + 1))
        report = check_eggs(table_system([frozenset(), top], 1, [True, True]), op)
        assert report == EggsReport(None, None, True) and calls == []

    def test_eighteen_elements_in_bounded_memory(self):
        top = frozenset(range(18))
        sys_ = table_system([frozenset(), frozenset({3, 17}), top], 2, [True, False, True])
        tracemalloc.start()
        try:
            report = check_eggs(sys_, identity_operator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report == EggsReport(False, True, False, (frozenset({3, 17}),))
        assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the seed enumerations that decided existential granules and EGGS before the
# fixed-point test, kept as the oracle


def oracle_unions(parts):
    out = [frozenset()]
    for part in parts:
        out += [u | part for u in out]
    return out


def oracle_is_existential_granule(g, op, universe, *, seeds=None):
    """Iterate every seed (every subset of G, G first, when none are given) and look for one that stops at G."""
    g = frozenset(g)
    limit = max(len(universe), 1) + 1
    if seeds is None:
        candidates = [g] + oracle_unions([{el} for el in sorted(g)])[:-1]
    else:
        candidates = [frozenset(s) for s in seeds]
    for e in candidates:
        if not e <= g:
            continue
        try:
            _, limit_set = iterate_to_fixpoint(op, e, limit)
        except DivergenceError:
            continue
        if limit_set == g:
            return True
    return False


def oracle_check_eggs(sys_, op):
    """Collect the stabilized image of every subset of top, then compare the flags with membership."""
    base = sys_.elements[sys_.top]
    if not isinstance(base, frozenset):
        raise TypeError("eggs checking needs subset-valued universe elements")
    if 2 ** len(base) > 2**20:
        return EggsReport(g1=None, g2=None, indeterminate=True)
    images = set()
    for e in oracle_unions([{m} for m in sorted(base)]):
        try:
            _, stable = iterate_to_fixpoint(op, e, len(base) + 1)
        except DivergenceError:
            return EggsReport(g1=None, g2=False, indeterminate=False, witness=(e,))
        images.add(stable)
    for i, el in enumerate(sys_.elements):
        if not isinstance(el, frozenset):
            raise TypeError("eggs checking needs subset-valued universe elements")
        if bool(sys_.granules[i]) != (el in images):
            return EggsReport(g1=False, g2=True, indeterminate=False, witness=(el,))
    return EggsReport(g1=True, g2=True, indeterminate=False)


OPERATOR_KINDS = ("arbitrary", "extensive", "shrinking", "escaping")


def table_operator(rng, n, kind):
    """A random operator on the subsets of range(n), as a lookup table; half its inputs map to themselves.

    An extensive image contains its input and a shrinking one lies inside it; an escaping operator also
    acts on the subsets of range(n + 1), so its images may leave range(n)."""
    domain = n + (kind == "escaping")
    subsets = oracle_unions([{el} for el in range(domain)])
    table = {}
    for e in subsets:
        image = e if rng.random() < 0.5 else subsets[rng.integers(len(subsets))]
        table[e] = image | e if kind == "extensive" else image & e if kind == "shrinking" else image
    return GranuleOperator(f"{kind}-table", table.__getitem__), subsets


def random_subsets(rng, subsets, size):
    return [subsets[i] for i in rng.integers(len(subsets), size=size)]


class TestFixedPointOracle:
    def test_equals_the_seed_enumeration_on_table_operators(self):
        rng = np.random.default_rng(32)
        systems = {n: build_set_hgos(range(n), [[el] for el in range(n)]) for n in range(6)}
        tally = {}
        for kind in OPERATOR_KINDS:
            for n in range(6):
                for _ in range(125):
                    op, subsets = table_operator(rng, n, kind)
                    fixed = [e for e in subsets if op(e) == e]
                    sys_ = replace(systems[n], granules=[op(el) == el for el in systems[n].elements])
                    if rng.random() < 0.5:
                        sys_.granules[rng.integers(sys_.n)] ^= True
                    got, want = check_eggs(sys_, op), oracle_check_eggs(sys_, op)
                    assert got == want, (kind, n, sys_.granules)
                    tally[kind, "eggs", got.g1, got.g2] = tally.get((kind, "eggs", got.g1, got.g2), 0) + 1
                    for g in random_subsets(rng, subsets, 1) + random_subsets(rng, fixed or subsets, 1):
                        universe = range(rng.integers(len(subsets).bit_length() + 1))
                        seeds = random_subsets(rng, subsets, rng.integers(4)) + [g] * int(rng.random() < 0.3)
                        for s in (None, seeds):
                            got = is_existential_granule(g, op, universe, seeds=s)
                            assert got == oracle_is_existential_granule(g, op, universe, seeds=s), (kind, g, s)
                            tally[kind, s is None, got] = tally.get((kind, s is None, got), 0) + 1
        assert sum(v for k, v in tally.items() if k[1] == "eggs") == 3000
        for kind in OPERATOR_KINDS:
            for seeded in (True, False):
                assert tally[kind, seeded, True] > 100 and tally[kind, seeded, False] > 100, (kind, seeded)
            assert tally[kind, "eggs", True, True] > 100 and tally[kind, "eggs", False, True] > 100, kind
        for kind in ("arbitrary", "escaping"):
            assert tally[kind, "eggs", None, False] > 50, kind

    def test_ball_refinement_equals_two_distance_calls(self):
        def two_calls(ds, fn, e):
            idx = np.array(sorted(e), dtype=int)
            pts = ds.points[idx]
            center = pts.mean(axis=0)
            radius = float(metrics.row_distances(fn, pts, center).max())
            return frozenset(np.flatnonzero(metrics.row_distances(fn, ds.points, center) <= radius).tolist())

        rng = np.random.default_rng(7)
        fns = (metrics.euclidean(), metrics.squared_euclidean(), metrics.manhattan(), metrics.chebyshev())
        for d in (1, 2, 3, 8, 9, 11):
            for scale in (1e-6, 1.0, 1e8):
                lattice = np.indices((3,) * min(d, 3)).reshape(min(d, 3), -1).T
                points = np.concatenate([rng.normal(size=(20, d)), np.pad(lattice, ((0, 0), (0, d - min(d, 3))))])
                ds = Dataset(points * scale)
                for fn in fns:
                    op = ball_refinement_operator(ds, fn)
                    for size in (1, 2, 3, 5, 12):
                        e = frozenset(rng.choice(ds.n, size=size, replace=False).tolist())
                        assert op(e) == two_calls(ds, fn, e), (d, scale, fn.name, e)


class TestSystemFiles:
    def test_round_trip(self):
        sys_ = build_set_hgos([1, 2, 3], [[1, 2], [3]])
        text = format_system_file(sys_)
        back = parse_system_file(text)
        assert back.n == sys_.n
        assert np.array_equal(back.parthood, sys_.parthood)
        assert np.array_equal(back.join, sys_.join)
        assert np.array_equal(back.lower, sys_.lower)
        assert back.bottom == sys_.bottom and back.top == sys_.top
        assert np.array_equal(back.granules, sys_.granules)
        assert check_mash(back, AxiomSuite.ggs()).ok

    def test_unknown_element_rejected(self):
        text = (
            "universe: a b\nbottom: a\ntop: b\n"
            "parthood:\n1 1\n0 1\norder:\n1 1\n0 1\n"
            "join:\na b\nb z\nmeet:\na a\na b\nlower: a b\nupper: a b\n"
        )
        with pytest.raises(StructureError, match="unknown element"):
            parse_system_file(text)

    def test_ragged_matrix_rejected(self):
        text = (
            "universe: a b\nbottom: a\ntop: b\n"
            "parthood:\n1 1 1\n0 1\norder:\n1 1\n0 1\n"
            "join:\na b\nb b\nmeet:\na a\na b\nlower: a b\nupper: a b\n"
        )
        with pytest.raises(StructureError, match="ragged"):
            parse_system_file(text)

    def test_missing_universe_rejected(self):
        with pytest.raises(StructureError, match="universe"):
            parse_system_file("bottom: a\ntop: a\n")

    def test_undefined_entries_round_trip(self):
        sys_ = build_set_hgos([1, 2], [[1], [2]])
        sys_.join = sys_.join.copy()
        sys_.join[1, 2] = -1  # make one join undefined
        text = format_system_file(sys_)
        assert "-" in text
        back = parse_system_file(text)
        assert back.join[1, 2] == -1


class TestStructureValidation:
    def test_bad_table_shape(self):
        with pytest.raises(StructureError):
            FinitePartialSystem(
                elements=["a", "b"],
                parthood=np.ones((2, 2), dtype=bool),
                order=np.ones((2, 2), dtype=bool),
                join=np.zeros((3, 3), dtype=int),
                meet=np.zeros((2, 2), dtype=int),
                lower=np.zeros(2, dtype=int),
                upper=np.zeros(2, dtype=int),
                bottom=0,
                top=1,
                granules=np.zeros(2, dtype=bool),
            )

    def test_partial_unary_rejected(self):
        with pytest.raises(StructureError):
            FinitePartialSystem(
                elements=["a", "b"],
                parthood=np.ones((2, 2), dtype=bool),
                order=np.ones((2, 2), dtype=bool),
                join=np.zeros((2, 2), dtype=int),
                meet=np.zeros((2, 2), dtype=int),
                lower=np.array([0, -1]),
                upper=np.zeros(2, dtype=int),
                bottom=0,
                top=1,
                granules=np.zeros(2, dtype=bool),
            )
