"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Criteria 1-5 share one 200-run corpus (seeded random datasets, accelerated
and naive runs side by side with instrumentation on).
"""

import csv
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from granule.ball_algebra import AmbientBall, CautiousBall, oplus, ovee, verify_laws
from granule.ball_kmeans import BkmConfig, Dataset, Init, lloyd_run, run
from granule.cli import main
from granule.existential import (
    AxiomSuite,
    ball_refinement_operator,
    build_set_hgos,
    check_mash,
    is_existential_granule,
    iterate_to_fixpoint,
)
from granule.granular_ball import GbConfig, LabeledDataset, classify, generate
from granule.rough_random import (
    approximation_set,
    check_approx_axioms,
    pawlak_space,
    xi5,
    xi_functions,
)

from conftest import make_blobs, two_blob_labeled
from fixtures_axioms import ALL_VIOLATIONS, set_partitions

CORPUS_SIZE = 200


@dataclass
class CorpusRecord:
    n: int
    d: int
    k: int
    init: Init
    histories_equal: bool
    partitions_equal: bool
    converged_fast: bool
    converged_naive: bool
    iterations: int
    fast_distances: int
    naive_distances: int
    prunings: int
    stable_violations: int
    move_target_violations: int
    pruning_violations: int


@pytest.fixture(scope="session")
def corpus():
    records = []
    start = time.perf_counter()
    for case in range(CORPUS_SIZE):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(50, 501))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 11))
        ds = Dataset(make_blobs(n, d, k, seed=1000 + case))
        init = Init.PLUS_PLUS if case % 2 == 0 else Init.RANDOM_PARTITION
        cfg = BkmConfig(k=k, seed=case, init=init, max_iter=200)
        fast, fast_stats = run(ds, cfg, instrument=True, record_history=True)
        naive, naive_stats = lloyd_run(ds, cfg, record_history=True)
        records.append(
            CorpusRecord(
                n=n,
                d=d,
                k=k,
                init=init,
                histories_equal=len(fast.history) == len(naive.history)
                and all(np.array_equal(a, b) for a, b in zip(fast.history, naive.history)),
                partitions_equal=bool(np.array_equal(fast.assignments, naive.assignments)),
                converged_fast=fast.converged,
                converged_naive=naive.converged,
                iterations=fast_stats.iterations,
                fast_distances=fast_stats.distance_computations,
                naive_distances=naive_stats.distance_computations,
                prunings=fast_stats.prunings_fired,
                stable_violations=fast_stats.stable_violations,
                move_target_violations=fast_stats.move_target_violations,
                pruning_violations=fast_stats.pruning_violations,
            )
        )
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="session")
def separated_runs():
    """Well-separated blob fixtures, one per k in 5..10, random-partition start."""
    out = {}
    for k in range(5, 11):
        rng = np.random.default_rng(9000 + k)
        centers = np.stack(
            [np.array([50.0 * (i % 4), 50.0 * (i // 4)]) for i in range(k)]
        )
        x = np.concatenate([rng.normal(c, 1.0, (40, 2)) for c in centers])
        ds = Dataset(x)
        cfg = BkmConfig(k=k, seed=k, init=Init.RANDOM_PARTITION, max_iter=200)
        fast, fast_stats = run(ds, cfg, instrument=True)
        naive, naive_stats = lloyd_run(ds, cfg)
        out[k] = (fast, fast_stats, naive, naive_stats)
    return out


def test_criterion_01_exactness_oracle(corpus):
    records, elapsed = corpus
    assert len(records) == CORPUS_SIZE
    mismatched = [i for i, r in enumerate(records) if not r.partitions_equal]
    assert mismatched == [], f"partition mismatches at {mismatched}"
    assert all(r.histories_equal for r in records)
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(
        f"\n[PASS] exactness oracle: {CORPUS_SIZE}/{CORPUS_SIZE} identical partitions "
        f"(and full per-iteration histories) in {elapsed:.1f}s"
    )


def test_criterion_02_stable_and_neighbor_enforcement(corpus):
    records, _ = corpus
    stable = sum(r.stable_violations for r in records)
    targets = sum(r.move_target_violations for r in records)
    assert stable == 0 and targets == 0
    print(
        f"\n[PASS] stable-region / neighbor-target enforcement: "
        f"0 violations across {CORPUS_SIZE} instrumented runs"
    )


def test_criterion_03_pruning_soundness(corpus, separated_runs):
    records, _ = corpus
    violations = sum(r.pruning_violations for r in records)
    assert violations == 0
    _, stats10, _, _ = separated_runs[10]
    assert stats10.prunings_fired >= 1, "pruning path not exercised"
    assert stats10.pruning_violations == 0
    total_fired = sum(r.prunings for r in records)
    print(
        f"\n[PASS] pruning soundness: 0 violations; {total_fired} prunings fired on the corpus, "
        f"{stats10.prunings_fired} on the 10-cluster fixture"
    )


def test_criterion_04_acceleration(corpus, separated_runs):
    records, _ = corpus
    over = [i for i, r in enumerate(records) if r.fast_distances > r.naive_distances]
    assert over == [], f"accelerated run cost more at {over}"
    for k, (fast, fast_stats, naive, naive_stats) in separated_runs.items():
        assert np.array_equal(fast.assignments, naive.assignments)
        assert fast_stats.distance_computations < naive_stats.distance_computations, (
            f"k={k} not strictly cheaper"
        )
    ratio = sum(r.fast_distances for r in records) / sum(r.naive_distances for r in records)
    print(
        f"\n[PASS] acceleration: accelerated <= naive on {CORPUS_SIZE}/{CORPUS_SIZE} "
        f"instances (corpus ratio {ratio:.2f}), strictly fewer on all separated fixtures k=5..10"
    )


def test_criterion_05_termination(corpus):
    records, _ = corpus
    assert all(r.converged_fast and r.converged_naive for r in records)
    worst = max(r.iterations for r in records)
    assert worst <= 200
    print(
        f"\n[PASS] termination: {CORPUS_SIZE}/{CORPUS_SIZE} runs converged "
        f"(max {worst} iterations)"
    )


def test_criterion_06_granular_ball_suite():
    x, labels = two_blob_labeled(n_per=100, seed=5)
    ds = LabeledDataset.build(x, labels)
    cfg = GbConfig(purity_threshold=0.95, seed=11)
    result = generate(ds, cfg)
    for ball, reason, depth in zip(result.balls, result.stop_reasons, result.depths):
        if reason == "purity":
            assert ball.purity is not None and ball.purity >= 0.95
        elif reason == "min_points":
            assert ball.size <= cfg.min_points
        elif reason == "max_depth":
            assert depth >= cfg.max_depth
        else:
            assert reason == "split_refused"
    assert sorted(i for b in result.balls for i in b.members) == list(range(ds.n))
    assert result.split_audit and all(ok for *_, ok in result.split_audit)
    rng = np.random.default_rng(77)
    xt = np.concatenate([rng.normal(0.0, 1.0, (50, 2)), rng.normal(8.0, 1.0, (50, 2))])
    yt = [0] * 50 + [1] * 50
    acc = np.mean([classify(result.balls, p) == y for p, y in zip(xt, yt)])
    assert acc >= 0.95
    print(
        f"\n[PASS] granular-ball suite: {len(result.balls)} balls all satisfy their stop "
        f"predicate, {len(result.split_audit)}/{len(result.split_audit)} splits pass "
        f"major/minor, held-out accuracy {acc:.3f}"
    )


def test_criterion_07_ball_algebra_laws():
    fixtures = []
    v7 = np.array([[float(t)] for t in range(-3, 4)])
    fixtures.append(("line-7", AmbientBall([0.0], 3.0), CautiousBall.build([0.0], 3.0, v7)))
    v15 = np.array([[float(t)] for t in range(-7, 8)])
    fixtures.append(("line-15", AmbientBall([0.0], 7.0), CautiousBall.build([0.0], 7.0, v15)))
    grid9 = np.array([[float(a), float(b)] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    fixtures.append(
        ("grid-9", AmbientBall([0.0, 0.0], 1.5), CautiousBall.build([0.0, 0.0], 1.5, grid9))
    )
    witness_found = False
    for name, amb, cau in fixtures:
        assert len(cau.members) <= 15
        report = verify_laws(amb, cau)
        assert report.all_hold, f"{name}: law violations"
        assert report.dom_contained, f"{name}: domain containment broken"
        if name == "line-7":
            assert report.properness_witness is not None
            alpha, beta, ia, ib = report.properness_witness
            a, b = cau.member_points()[ia], cau.member_points()[ib]
            assert oplus(amb, alpha, a, beta, b).defined
            assert not ovee(cau, alpha, a, beta, b).defined
            witness_found = True
    assert witness_found
    print(
        "\n[PASS] ball-algebra laws: zero violations on all fixtures (|V| <= 15, default "
        "grid), domain contained, properness witness verified on the standard fixture"
    )


def test_criterion_08_axiom_checker_ground_truth():
    total = multi = 0
    for size in range(1, 6):
        partitions = list(set_partitions(list(range(1, size + 1))))
        if size == 5:
            assert len(partitions) == 52
        for blocks in partitions:
            system = build_set_hgos(list(range(1, size + 1)), blocks)
            report = check_mash(system, AxiomSuite.ggs())
            total += 1
            if len(blocks) >= 2:
                multi += 1
                assert report.ok, (size, blocks, report.failed())
            else:
                # provable exception: a granulation consisting of the top element
                # alone cannot reach the empty approximation by granule terms and
                # has no proper definite upper bound, so WRA and FU must fail
                assert report.failed() == ["FU", "WRA"], (size, report.failed())
    for builder in ALL_VIOLATIONS:
        system, expected = builder()
        report = check_mash(system, AxiomSuite.ggs())
        assert report.failed() == [expected], (builder.__name__, report.failed())
    print(
        f"\n[PASS] axiom ground truth: all {multi} multi-block partition systems (of {total} "
        f"partitions, sizes 1-5) pass the full GGS suite (+WRA/LS/FU); the {total - multi} "
        f"single-block systems fail exactly WRA+FU as the definitions force; 6/6 violating "
        f"fixtures fail exactly their axiom"
    )


def test_criterion_09_existential_fixed_points():
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(0.0, 0.4, (5, 2)), rng.normal(12.0, 0.4, (5, 2))])
    ds = Dataset(x)
    op = ball_refinement_operator(ds)
    worst = 0
    for mask in range(2**10):
        e = frozenset(i for i in range(10) if mask >> i & 1)
        n, _ = iterate_to_fixpoint(op, e, max_n=10)
        worst = max(worst, n)
    assert worst <= 10
    clustering, _ = run(ds, BkmConfig(k=2, seed=3, init=Init.PLUS_PLUS))
    clusters = [np.flatnonzero(clustering.assignments == i) for i in range(clustering.k)]
    for members in clusters:
        g = frozenset(int(i) for i in members)
        assert is_existential_granule(g, op, range(10), seeds=[g])
    print(
        f"\n[PASS] existential fixed points: all 1024 subsets stabilize within {worst} <= 10 "
        f"steps; every final cluster is existential from its own seed"
    )


XI5_CASES = [
    (frozenset(), frozenset({1}), 1.0),
    (frozenset({1}), frozenset({1}), 0.0),
    (frozenset({1}), frozenset({1, 2}), 0.5),
    (frozenset({2}), frozenset({1, 2}), 0.5),
    (frozenset(), frozenset({1, 2}), 1.0),
    (frozenset({1, 2}), frozenset({1, 2}), 0.0),
    (frozenset({1, 2, 3}), frozenset({1, 2}), 0.0),
    (frozenset({1}), frozenset({2, 3}), 1.0),
    (frozenset({1}), frozenset({1, 2, 3}), 2 / 3),
    (frozenset({1, 2}), frozenset({1, 2, 3}), 1 / 3),
    (frozenset({3}), frozenset({1, 2, 3}), 2 / 3),
    (frozenset({1, 3}), frozenset({1, 2, 3, 4}), 0.5),
    (frozenset(), frozenset({1, 2, 3, 4}), 1.0),
    (frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 4}), 0.0),
    (frozenset({2, 4}), frozenset({1, 2, 3, 4, 5}), 3 / 5),
    (frozenset({1, 2, 3}), frozenset({3, 4, 5, 6}), 3 / 4),
    (frozenset({9}), frozenset(range(1, 9)), 1.0),
    (frozenset(range(1, 8)), frozenset(range(1, 9)), 1 / 8),
    (frozenset({5, 6}), frozenset({5, 6, 7}), 1 / 3),
    (frozenset({0}), frozenset({0, 1, 2, 3, 4}), 4 / 5),
]


def test_criterion_10_example_space_reproduction():
    checked = 0
    for size in range(1, 5):
        for blocks in set_partitions(list(range(size))):
            space = pawlak_space(range(size), blocks)
            assert check_approx_axioms(space).ok
            checked += 1
    rng = np.random.default_rng(17)
    for size in range(5, 9):
        for _ in range(5):
            labels = rng.integers(0, size, size)
            blocks = {}
            for i, lab in enumerate(labels):
                blocks.setdefault(int(lab), []).append(i)
            space = pawlak_space(range(size), list(blocks.values()))
            report = check_approx_axioms(space)
            assert report.ok and not report.sampled
            checked += 1
    validated = 0
    for blocks in set_partitions([1, 2, 3, 4]):
        space = pawlak_space([1, 2, 3, 4], blocks)
        a_tau = approximation_set(space)
        for variant in (1, 2, 3):
            wrapper = xi_functions(space, variant)
            validation = wrapper.validate(a_tau=a_tau)
            assert validation.ok, (blocks, variant)
            validated += 1
    for a, b, expected in XI5_CASES:
        assert xi5(a, b) == pytest.approx(expected, abs=1e-12)
    print(
        f"\n[PASS] approximation-space reproduction: {checked} partition spaces pass all six "
        f"axioms exhaustively (|S| <= 8); {validated} xi wrappers validate as type-1; "
        f"20/20 hand-computed xi5 values match"
    )


def _write_blob_csv(path):
    x, labels = two_blob_labeled(n_per=40, seed=5)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "class"])
        for row, lab in zip(x, labels):
            writer.writerow([f"{row[0]:.6f}", f"{row[1]:.6f}", "pos" if lab else "neg"])
    return str(path)


def test_criterion_11_cli_determinism(tmp_path):
    blob = _write_blob_csv(tmp_path / "blobs.csv")
    commands = {
        "cluster": ["cluster", "--input", blob, "--labels", "class", "--k", "3", "--seed", "5"],
        "lloyd": ["lloyd", "--input", blob, "--labels", "class", "--k", "3", "--seed", "5"],
        "bench": ["bench", "--input", blob, "--labels", "class", "--k", "3", "--seed", "5", "--repeats", "2"],
        "gb": ["gb", "--input", blob, "--labels", "class", "--purity", "0.9", "--seed", "5"],
        "verify-metric": ["verify-metric", "--input", blob, "--labels", "class", "--metric", "euclidean"],
        "verify-algebra": ["verify-algebra", "--center", "0", "--radius", "3"],
        "verify-axioms": ["verify-axioms", "--universe", "1,2,3,4", "--partition", "1,2|3,4"],
        "crrf-demo": ["crrf-demo", "--universe", "1,2,3", "--partition", "1,2|3"],
    }
    for name, args in commands.items():
        outputs = []
        for tag in "abc":
            out = tmp_path / f"{name}-{tag}.json"
            code = main(args + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], f"{name} not byte-stable"
        json.loads(outputs[0])  # every report is valid JSON
    print(f"\n[PASS] CLI determinism: {len(commands)} commands byte-identical across three reruns")
