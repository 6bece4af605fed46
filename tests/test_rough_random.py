import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granule.ball_kmeans import BkmConfig, Dataset
from granule import rough_random
from granule.existential import BudgetError
from granule.rough_random import (
    ApproxSpace,
    Constraint,
    CrrfKind,
    CrrfWrapper,
    RoughPair,
    approximation_set,
    bkm_crrf3_trace,
    check_approx_axioms,
    e1_pairs,
    e2_objects,
    f_objects,
    pawlak_space,
    xi5,
    xi_functions,
)

from conftest import make_blobs
from fixtures_axioms import set_partitions


def identity_space(universe):
    return ApproxSpace(universe=tuple(universe), lower=lambda x: x, upper=lambda x: x)


def id_const_space(universe):
    full = frozenset(universe)
    return ApproxSpace(universe=tuple(universe), lower=lambda x: x, upper=lambda x: full)


def broken_monotone_space():
    # lower is identity except one subset collapses to empty
    def lower(x):
        return frozenset() if x == frozenset({1, 2}) else x

    return ApproxSpace(universe=(1, 2, 3), lower=lower, upper=lambda x: x)


def loop_subsets(universe):
    members = list(universe)
    for mask in range(2 ** len(members)):
        yield frozenset(members[b] for b in range(len(members)) if mask >> b & 1)


def mask_order(space):
    """Sort key of a subset: its bitmask over the universe order."""
    return lambda x: sum(1 << space.universe.index(el) for el in x)


def loop_check_approx_axioms(space):
    """Reference: the exhaustive frozenset loop over every subset and nested pair."""
    uni = space.universe
    full = frozenset(uni)
    pool = list(loop_subsets(uni))
    pairs = []
    for b in pool:
        items = sorted(b)
        for mask in range(2 ** len(items)):
            a = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            pairs.append((a, b))
    results = {}
    int_cl = l_id = (True, None)
    for x in pool:
        lx, ux = space.approx(x)
        if int_cl[0] and not lx <= ux:
            int_cl = (False, (x,))
        llx, _ = space.approx(lx)
        if l_id[0] and not llx <= lx:
            l_id = (False, (x,))
    results["int-cl"] = int_cl
    results["l-id"] = l_id
    l_mo = u_mo = (True, None)
    for a, b in pairs:
        la, ua = space.approx(a)
        lb, ub = space.approx(b)
        if l_mo[0] and not la <= lb:
            l_mo = (False, (a, b))
        if u_mo[0] and not ua <= ub:
            u_mo = (False, (a, b))
    results["l-mo"] = l_mo
    results["u-mo"] = u_mo
    lbot, _ = space.approx(frozenset())
    results["l-bot"] = (lbot == frozenset(), None if lbot == frozenset() else (frozenset(),))
    _, utop = space.approx(full)
    results["u-top"] = (utop == full, None if utop == full else (full,))
    return results


def loop_approximation_set(space):
    out = set()
    for x in loop_subsets(space.universe):
        out.update(space.approx(x))
    return sorted(out, key=mask_order(space))


def loop_e1_pairs(space):
    seen = {space.approx(x) for x in loop_subsets(space.universe)}
    key = lambda p: (mask_order(space)(p[0]), mask_order(space)(p[1]))
    return [RoughPair(lower_part=a, upper_part=b) for a, b in sorted(seen, key=key)]


def loop_f_objects(space):
    a_tau = set(loop_approximation_set(space))
    return sorted((x for x in loop_subsets(space.universe) if x not in a_tau), key=mask_order(space))


def loop_e2_objects(space):
    return sorted(
        (x for x in loop_subsets(space.universe) if space.approx(x)[1] == x),
        key=mask_order(space),
    )


def perturbed_space(rng, sizes=(1, 7)):
    """A partition space over an unsorted universe with a few map entries overwritten."""
    n = int(rng.integers(*sizes))
    uni = tuple(int(v) for v in rng.permutation(max(9, n))[:n])
    labels = rng.integers(0, n, n)
    blocks = [[u for u, lab in zip(uni, labels) if lab == c] for c in np.unique(labels)]
    pawlak = pawlak_space(uni, blocks)
    subsets = list(loop_subsets(uni))
    tables = [{x: m(x) for x in subsets} for m in (pawlak.lower, pawlak.upper)]
    for _ in range(int(rng.integers(0, 4))):
        table = tables[int(rng.integers(2))]
        table[subsets[int(rng.integers(len(subsets)))]] = subsets[int(rng.integers(len(subsets)))]
    return ApproxSpace(universe=uni, lower=tables[0].__getitem__, upper=tables[1].__getitem__)


class TestAxioms:
    def test_pawlak_passes_exhaustively(self):
        rep = check_approx_axioms(pawlak_space([1, 2, 3, 4], [[1, 2], [3], [4]]))
        assert rep.ok and not rep.sampled

    def test_identity_and_constant_upper_pass(self):
        assert check_approx_axioms(id_const_space([1, 2, 3])).ok

    def test_non_monotone_lower_fails_l_mo(self):
        rep = check_approx_axioms(broken_monotone_space())
        assert rep.failed() == ["l-mo"]
        a, b = rep.results["l-mo"][1]
        assert a < b  # witness pair is a strict nesting

    def test_large_universe_falls_back_to_sampling(self):
        rep = check_approx_axioms(identity_space(range(16)))
        assert rep.sampled and rep.ok

    @pytest.mark.parametrize("size", [5, 13, 15])
    def test_universe_of_tuples(self, size):
        # lattice points: a sampled run must not turn the members into an array axis
        uni = tuple((i, i + 1) for i in range(size))
        for space in (ApproxSpace(uni, lambda x: x, lambda x: x), pawlak_space(uni, [uni[:2], uni[2:]])):
            rep = check_approx_axioms(space)
            assert rep.ok and rep.sampled == (size > 14)

    @settings(max_examples=20)
    @given(st.integers(0, 10**6))
    def test_every_partition_space_passes(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 6))
        labels = rng.integers(0, max(size - 1, 1) + 1, size)
        blocks = {}
        for i, lab in enumerate(labels):
            blocks.setdefault(int(lab), []).append(i)
        space = pawlak_space(range(size), list(blocks.values()))
        rep = check_approx_axioms(space)
        assert rep.ok
        # partition strengthening: approximations bracket the set, both idempotent; and they are
        # the unions of the blocks inside and meeting the set
        for mask in range(2**size):
            x = frozenset(i for i in range(size) if mask >> i & 1)
            lx, ux = space.approx(x)
            assert lx == frozenset(i for b in blocks.values() if set(b) <= x for i in b)
            assert ux == frozenset(i for b in blocks.values() if x & set(b) for i in b)
            assert lx <= x <= ux
            assert space.approx(lx)[0] == lx
            assert space.approx(ux)[1] == ux


class TestMaskTable:
    def test_matches_frozenset_loops_on_perturbed_spaces(self):
        rng = np.random.default_rng(8)
        failures = dict.fromkeys(("int-cl", "l-id", "l-mo", "u-mo", "l-bot", "u-top"), 0)
        for _ in range(300):
            space = perturbed_space(rng)
            rep = check_approx_axioms(space)
            assert not rep.sampled
            assert list(rep.results.items()) == list(loop_check_approx_axioms(space).items())
            for name in rep.failed():
                failures[name] += 1
            assert approximation_set(space) == loop_approximation_set(space)
            assert e1_pairs(space) == loop_e1_pairs(space)
            assert f_objects(space) == loop_f_objects(space)
            assert e2_objects(space) == loop_e2_objects(space)
        assert all(failures.values()), failures

    def test_matches_frozenset_loops_past_six_elements(self):
        # the union pass makes one OR pass per element: check it where there are many
        rng = np.random.default_rng(31)
        failures = {"l-mo": 0, "u-mo": 0}
        for size in (7, 8, 9, 10, 7, 8, 9, 10):
            space = perturbed_space(rng, (size, size + 1))
            rep = check_approx_axioms(space)
            assert list(rep.results.items()) == list(loop_check_approx_axioms(space).items())
            for name in failures:
                failures[name] += name in rep.failed()
        assert all(failures.values()), failures

    def test_fourteen_elements_are_exhausted(self):
        # a planted u-mo violation: {13} maps onto {0, 13}, which {12, 13} does not cover;
        # 13 sits at bit 0 and 12 at bit 1, so {12, 13} is the first superset of {13} to miss 0
        uni = tuple(range(13, -1, -1))
        plant = frozenset({13})
        space = ApproxSpace(uni, lambda x: x, lambda x: x | {0} if x == plant else x)
        rep = check_approx_axioms(space)
        assert not rep.sampled and rep.failed() == ["u-mo"]
        assert rep.results["u-mo"] == (False, (plant, frozenset({12, 13})))

    def test_mixed_type_universe_sorts_only_for_a_witness(self):
        uni = (1, "a", (2, 3))
        assert check_approx_axioms(identity_space(uni)).ok
        assert check_approx_axioms(pawlak_space(uni, [uni[:1], uni[1:]])).ok
        full = frozenset(uni)
        broken = ApproxSpace(uni, lambda x: frozenset() if x == full else x, lambda x: x)
        with pytest.raises(TypeError):  # the witness order of l-mo needs sorted elements
            check_approx_axioms(broken)

    def test_exhaustive_check_in_bounded_memory(self):
        # a mask table and one union pass per map: no list of the 3^14 nested pairs or 2^14 frozensets
        space = pawlak_space(range(14), [range(i, 14, 5) for i in range(5)])
        tracemalloc.start()
        try:
            rep = check_approx_axioms(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and not rep.sampled
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "kwargs", [{"seed": 0.5}, {"seed": -1}, {"seed": True}, {"samples": -1}, {"samples": 0}, {"samples": 2.0j}]
    )
    def test_bad_seed_or_samples_is_refused(self, kwargs):
        for size in (3, 16):
            with pytest.raises(ValueError, match="seed|samples"):
                check_approx_axioms(identity_space(range(size)), **kwargs)

    def test_monotonicity_witness_follows_sorted_submask_order(self):
        # over (3, 1, 2) the first bad a below the full set is {1} in sorted
        # order, but {3} in mask order
        full = frozenset({1, 2, 3})
        space = ApproxSpace(
            universe=(3, 1, 2),
            lower=lambda x: frozenset() if x == full else x,
            upper=lambda x: x,
        )
        rep = check_approx_axioms(space)
        assert rep.failed() == ["l-mo"]
        assert rep.results["l-mo"] == (False, (frozenset({1}), full))

    @pytest.mark.parametrize("size", [6, 16])
    def test_partition_space_reads_its_block_table(self, size):
        # exhaustive (6) and sampled (16) checks and every enumeration, without the public maps
        space = pawlak_space(range(size), [[0, 1], [2], list(range(3, size))])

        def spy(x):
            raise AssertionError("a partition space's maps were called")

        space.approx = space.lower = space.upper = spy
        rep = check_approx_axioms(space)
        assert rep.ok and rep.sampled == (size > 14)
        assert len(approximation_set(space)) == 8
        if size <= 14:
            assert (len(e1_pairs(space)), len(f_objects(space)), len(e2_objects(space))) == (18, 56, 8)

    @pytest.mark.parametrize("limit, calls", [(12, 2**6), (5, 3 * 40 + 2)])
    def test_direct_space_maps_called_once_per_subset_or_row(self, limit, calls, monkeypatch):
        monkeypatch.setattr(rough_random, "EXHAUSTIVE_LIMIT", limit)
        counts = {"lower": 0, "upper": 0}

        def counted(name):
            return lambda x: counts.__setitem__(name, counts[name] + 1) or x

        space = ApproxSpace(universe=range(6), lower=counted("lower"), upper=counted("upper"))
        rep = check_approx_axioms(space, samples=40)
        assert rep.ok and rep.sampled == (limit < 6)
        assert counts == {"lower": calls, "upper": calls}

    @pytest.mark.parametrize(
        "enumerate_", [check_approx_axioms, approximation_set, e1_pairs, f_objects, e2_objects]
    )
    def test_out_of_universe_image_is_refused(self, enumerate_):
        space = ApproxSpace(
            universe=(1, 2),
            lower=lambda x: x,
            upper=lambda x: x | {7} if 2 in x else x,
        )
        with pytest.raises(ValueError, match=r"upper of \{2\} returns \{7\} outside the universe"):
            enumerate_(space)

    def test_sampled_check_refuses_out_of_universe_image(self, monkeypatch):
        monkeypatch.setattr(rough_random, "EXHAUSTIVE_LIMIT", 1)
        space = ApproxSpace(universe=(1, 2), lower=lambda x: x, upper=lambda x: x | {7} if 2 in x else x)
        with pytest.raises(ValueError, match=r"returns \{7\} outside the universe"):
            check_approx_axioms(space)

    @pytest.mark.parametrize("limit", [12, 1])
    def test_repeated_universe_elements_are_refused(self, limit, monkeypatch):
        monkeypatch.setattr(rough_random, "EXHAUSTIVE_LIMIT", limit)
        with pytest.raises(ValueError, match="repeated"):
            pawlak_space([1, 1, 2], [[1], [2]])  # refused when built
        with pytest.raises(ValueError, match="repeated"):
            check_approx_axioms(identity_space([1, 1, 2]))


class TestApproximationSet:
    def test_pawlak_block_unions(self):
        space = pawlak_space([1, 2, 3], [[1, 2], [3]])
        got = {tuple(sorted(a)) for a in approximation_set(space)}
        assert got == {(), (1, 2), (3,), (1, 2, 3)}

    def test_identity_space_gives_full_powerset(self):
        space = identity_space([1, 2, 3])
        assert len(approximation_set(space)) == 8

    def test_constant_maps_give_two_elements(self):
        full = frozenset({1, 2})
        space = ApproxSpace(
            universe=(1, 2), lower=lambda x: frozenset(), upper=lambda x: full
        )
        got = set(approximation_set(space))
        assert got == {frozenset(), full}

    def test_partition_fallback_beyond_limit(self):
        blocks = [[i, i + 1] for i in range(0, 20, 2)]
        space = pawlak_space(range(20), blocks)
        out = approximation_set(space)
        assert len(out) == 2**10

    def test_partition_fallback_follows_universe_mask_order(self):
        universe = [9, 4, 7, 1, 8, 2, 6]
        blocks = [[4, 2], [9], [8, 1, 6], [7]]
        space = pawlak_space(universe, blocks)
        out = approximation_set(space)
        mask = lambda x: sum(1 << universe.index(el) for el in x)
        unions = {frozenset(el for b in range(4) if m >> b & 1 for el in blocks[b]) for m in range(16)}
        assert out == sorted(unions, key=mask)
        assert out != sorted(unions, key=lambda x: sum(1 << el for el in x))  # not element order
        # partition spaces take the block unions at every size; on small universes these equal the
        # exhaustive images of the same maps, taken when the space hides its blocks
        rng = np.random.default_rng(25)
        for _ in range(100):
            universe = rng.permutation(20)[: rng.integers(1, 10)].tolist()
            labels = rng.integers(0, rng.integers(1, len(universe) + 1), len(universe))
            space = pawlak_space(universe, [[el for el, l in zip(universe, labels) if l == b] for b in set(labels)])
            assert approximation_set(space) == approximation_set(ApproxSpace(universe, space.lower, space.upper))

    def test_partition_fallback_budget(self, monkeypatch):
        # the unions of k blocks over n elements hold 2^(k-1) n members in total
        built = []
        monkeypatch.setattr(rough_random, "_unions", lambda parts: built.append(len(parts)) or [])
        allowed = pawlak_space(range(2000), [range(i, 2000, 14) for i in range(14)])  # 16.4M members
        assert approximation_set(allowed) == [] and built == [14]
        refused = pawlak_space(range(40), [[i, i + 20] for i in range(20)])  # 21.0M members
        with pytest.raises(BudgetError, match="2\\^24"):
            approximation_set(refused)
        assert built == [14]

    def test_blocks_come_only_from_pawlak_space(self):
        # a constructor-given block list would be believed over the maps
        with pytest.raises(TypeError):
            ApproxSpace((1, 2, 3), lambda x: x, lambda x: x, blocks=({1, 2}, {2, 3}))
        assert identity_space([1, 2, 3]).blocks is None
        assert pawlak_space([1, 2, 3], [[1, 2], [3]]).blocks == (frozenset({1, 2}), frozenset({3}))

    def test_budget_error_for_opaque_large_space(self):
        with pytest.raises(BudgetError):
            approximation_set(identity_space(range(20)))


class TestRoughObjects:
    def test_e1_pairs_are_nested_for_valid_space(self):
        space = pawlak_space([1, 2, 3], [[1, 2], [3]])
        pairs = e1_pairs(space)
        assert all(p.is_nested for p in pairs)
        assert RoughPair(frozenset(), frozenset({1, 2})) in pairs

    def test_f_objects_complement_a_tau(self):
        space = pawlak_space([1, 2], [[1, 2]])
        f = set(f_objects(space))
        a_tau = set(approximation_set(space))
        assert f == {frozenset({1}), frozenset({2})}
        assert not (f & a_tau)

    def test_e2_objects_are_upper_fixed(self):
        space = pawlak_space([1, 2, 3], [[1, 2], [3]])
        for x in e2_objects(space):
            assert space.approx(x)[1] == x


class TestXiFunctions:
    def test_block_maps_to_itself(self):
        space = pawlak_space([1, 2, 3], [[1, 2], [3]])
        xi1 = xi_functions(space, 1)
        block = frozenset({1, 2})
        assert xi1.apply(block) == RoughPair(block, block)

    def test_all_variants_validate_as_type1(self):
        for blocks in set_partitions([1, 2, 3, 4]):
            space = pawlak_space([1, 2, 3, 4], blocks)
            a_tau = approximation_set(space)
            for variant in (1, 2, 3):
                wrapper = xi_functions(space, variant)
                validation = wrapper.validate(a_tau=a_tau)
                assert validation.ok, (blocks, variant)

    def test_minimal_cover_on_definite_block(self):
        space = pawlak_space([1, 2, 3], [[1, 2], [3]])
        xi1 = xi_functions(space, 1, Constraint.MINIMAL_COVER)
        block = frozenset({1, 2})
        assert xi1.apply(block) == RoughPair(block, block)

    def test_xi3_minimal_cover_can_be_undefined(self):
        # a space violating lower-in-upper nesting leaves {2} uncovered
        def lower(x):
            return frozenset({1}) if x == frozenset({2}) else x

        space = ApproxSpace(universe=(1, 2), lower=lower, upper=lambda x: x)
        xi3 = xi_functions(space, 3, Constraint.MINIMAL_COVER)
        assert xi3.apply(frozenset({2})) is None
        plain = xi_functions(space, 3)
        assert plain.apply(frozenset({2})) is not None

    def test_invalid_variant(self):
        space = pawlak_space([1], [[1]])
        with pytest.raises(ValueError):
            xi_functions(space, 4)

    def test_wrapper_flags_codomain_escape(self):
        space = pawlak_space([1, 2], [[1], [2]])
        rogue = CrrfWrapper(
            kind=CrrfKind.TYPE1,
            domain=tuple(approximation_set(space)),
            func=lambda a: RoughPair(frozenset({1, 2}), frozenset()),
            codomain=tuple(e1_pairs(space)),
        )
        assert not rogue.validate().codomain_ok

    def test_type_h_wrapper_validates(self):
        # operator-indexed wrapper kind: domain pairs (operator tag, subset)
        space = pawlak_space([1, 2], [[1], [2]])
        pairs = tuple(e1_pairs(space))
        domain = tuple(
            (tag, x)
            for tag in ("lower", "upper")
            for x in approximation_set(space)
        )

        def func(key):
            tag, x = key
            lx, ux = space.approx(x)
            return RoughPair(lx, ux)

        wrapper = CrrfWrapper(kind=CrrfKind.TYPEH, domain=domain, func=func, codomain=pairs)
        validation = wrapper.validate()
        assert validation.ok and validation.total

    def test_type2_must_be_total(self):
        space = pawlak_space([1, 2], [[1], [2]])
        partial = CrrfWrapper(
            kind=CrrfKind.TYPE2,
            domain=tuple(approximation_set(space)),
            func=lambda a: None,
        )
        assert not partial.validate().ok


class TestXi5:
    def test_trivial_cases(self):
        assert xi5(frozenset({1, 2, 3}), frozenset({1, 2})) == 0.0
        assert xi5(frozenset({5}), frozenset({1, 2})) == 1.0
        assert xi5(frozenset({1}), frozenset({1, 2, 3})) == pytest.approx(2 / 3)

    def test_empty_second_argument_rejected(self):
        with pytest.raises(ValueError):
            xi5(frozenset({1}), frozenset())

    @given(
        st.frozensets(st.integers(0, 8), max_size=8),
        st.frozensets(st.integers(0, 8), min_size=1, max_size=8),
    )
    def test_range_and_zero_characterization(self, a, b):
        val = xi5(a, b)
        assert 0.0 <= val <= 1.0
        assert (val == 0.0) == (b <= a)


class TestCrrf3Trace:
    def test_k1_single_entry(self):
        ds = Dataset(make_blobs(12, 2, 2, seed=0))
        trace = bkm_crrf3_trace(ds, BkmConfig(k=1, seed=0))
        assert len(trace) == 1 and trace[-1].fixed_point

    def test_converged_trace_properties(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 0.5, (8, 2)), rng.normal(6, 0.5, (8, 2))])
        cfg = BkmConfig(k=2, seed=1)
        trace = bkm_crrf3_trace(Dataset(x), cfg)
        assert trace[-1].fixed_point
        assert all(check_approx_axioms(e.space).ok for e in trace)
        assert all(e.crrf.validate().total for e in trace)
        assert all(e.crrf.kind is CrrfKind.TYPE3 for e in trace)
        # crisp clusterings are partitions: blocks disjoint and covering
        for entry in trace:
            flat = sorted(i for block in entry.partition for i in block)
            assert flat == list(range(16))

    def test_final_map_is_identity_on_blocks(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 0.5, (8, 2)), rng.normal(6, 0.5, (8, 2))])
        trace = bkm_crrf3_trace(Dataset(x), BkmConfig(k=2, seed=1))
        last = trace[-1]
        for block in last.partition:
            assert last.crrf.apply(frozenset(block)) == frozenset(block)

    def test_trace_length_equals_iterations(self):
        ds = Dataset(make_blobs(40, 2, 3, seed=9))
        cfg = BkmConfig(k=3, seed=2)
        trace = bkm_crrf3_trace(ds, cfg)
        from granule.ball_kmeans import run

        _, stats = run(ds, cfg)
        assert len(trace) == stats.iterations
