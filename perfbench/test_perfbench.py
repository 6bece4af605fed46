"""Tests of the benchmark itself: checkers, tracer and the refusal to run without src/.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

from granule import granular_ball  # noqa: E402
from granule.ball_kmeans import BkmConfig, Dataset, Init, lloyd_run, run  # noqa: E402
from granule.granular_ball import GbConfig, LabeledDataset, classify, generate  # noqa: E402
from granule.metrics import euclidean  # noqa: E402


def failed_frac(ok_output_problem, corrupted_problem) -> float:
    tally = checks.Tally()
    tally.record("ok", ok_output_problem)
    tally.record("corrupted", corrupted_problem)
    return tally.failed_frac


@pytest.fixture(scope="module")
def clusterings():
    ds = Dataset(workloads.make_blobs(300, 2, 4, seed=1))
    cfg = BkmConfig(k=4, seed=3, init=Init.PLUS_PLUS)
    c_run, _ = run(ds, cfg, record_history=True)
    c_ll, _ = lloyd_run(ds, cfg, record_history=True)
    return ds, c_run, c_ll


def moved_one(clustering):
    """The clustering with point 0 put in another cluster."""
    assign = clustering.assignments.copy()
    assign[0] = (assign[0] + 1) % clustering.k
    return dataclasses.replace(clustering, assignments=assign)


def test_cli_report_check(clusterings):
    _, c_run, _ = clusterings
    good = {"assignments": c_run.assignments.tolist()}
    bad = {"assignments": moved_one(c_run).assignments.tolist()}
    assert checks.cli_report_problem(0, good, c_run.assignments) is None
    assert failed_frac(checks.cli_report_problem(0, good, c_run.assignments),
                       checks.cli_report_problem(0, bad, c_run.assignments)) == 0.5
    assert checks.cli_report_problem(3, good, c_run.assignments) is not None


def test_run_check(clusterings):
    _, c_run, c_ll = clusterings
    assert checks.run_problem(c_run, c_ll) is None
    assert failed_frac(None, checks.run_problem(moved_one(c_run), c_ll)) > 0
    tied = dataclasses.replace(c_run, ties=[(0, (0, 1))])
    assert checks.run_problem(tied, c_ll) is not None


def test_lloyd_check(clusterings):
    ds, _, c_ll = clusterings
    assert checks.lloyd_problem(c_ll, ds.points) is None
    assert failed_frac(None, checks.lloyd_problem(moved_one(c_ll), ds.points)) > 0


def test_history_check(clusterings):
    _, c_run, c_ll = clusterings
    assert checks.history_problem(c_run.history, c_ll.history) is None
    corrupted = [h.copy() for h in c_run.history]
    corrupted[1][0] = (corrupted[1][0] + 1) % c_run.k
    assert failed_frac(None, checks.history_problem(corrupted, c_ll.history)) > 0
    assert checks.history_problem(c_run.history[:-1], c_ll.history) is not None


@pytest.fixture(scope="module")
def balls():
    x, y = workloads.noisy_classes(240)
    ds = LabeledDataset.build(x[:120], y[:120].tolist())
    res = generate(ds, GbConfig(purity_threshold=0.95, min_points=4, overlap_resolution=True))
    return ds, res, x[120:]


def test_gb_check(balls):
    ds, res, _ = balls
    assert res.split_audit, "the fixture must split at least once"
    assert checks.gb_problem(res, ds.n) is None
    shrunk = dataclasses.replace(res.balls[0], members=res.balls[0].members[1:])
    dropped = dataclasses.replace(res, balls=[shrunk] + res.balls[1:])
    assert failed_frac(None, checks.gb_problem(dropped, ds.n)) > 0
    parent, children, _ = res.split_audit[0]
    bad_audit = dataclasses.replace(res, split_audit=[(parent, children, False)] + res.split_audit[1:])
    assert checks.gb_problem(bad_audit, ds.n) is not None


def test_classify_check(balls):
    _, res, held_out = balls
    preds = [classify(res.balls, p, distance=euclidean()) for p in held_out]
    assert checks.classify_problem(preds, res.balls, held_out) is None
    labels = sorted({b.majority_label for b in res.balls})
    wrong = list(preds)
    wrong[0] = next(lab for lab in labels if lab != wrong[0])
    assert failed_frac(None, checks.classify_problem(wrong, res.balls, held_out)) > 0


def test_classify_reference_breaks_ties_by_radius_then_id():
    ball = granular_ball.GranularBall
    tied = [
        ball(center=np.array([2.0]), radius=1.0, members=(0,), purity=1.0, majority_label=0),
        ball(center=np.array([-1.5]), radius=0.5, members=(1,), purity=1.0, majority_label=1),
        ball(center=np.array([-1.5]), radius=0.5, members=(2,), purity=1.0, majority_label=2),
    ]
    points = np.array([[0.0]])
    assert checks.classify_reference(tied, points).tolist() == [1] == [classify(tied, points[0])]


def test_expected_check():
    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    flipped = json.loads(json.dumps(expected["laws"]))
    flipped["ambient"]["weak_assoc"][0] = False
    assert checks.expected_problem(expected["laws"], expected["laws"]) is None
    assert failed_frac(None, checks.expected_problem(flipped, expected["laws"])) > 0
    recount = dict(expected["mash"], systems=expected["mash"]["systems"] - 1)
    assert checks.expected_problem(recount, expected["mash"]) is not None


def test_tracer_self_time_and_leaves():
    tracer = Tracer()
    with tracer.operation("op"):
        with tracer.span("child"):
            tracer._leaf("leaf", 0.0)
    op = next(s for s in tracer.spans if s["name"] == "op")
    child = next(s for s in tracer.spans if s["name"] == "child")
    assert child["parent"] == op["id"] and child["op"] == "op"
    child_s = child["end"] - child["start"]
    assert op["self_s"] == pytest.approx((op["end"] - op["start"]) - child_s)
    assert tracer.leaf("op", "leaf")[0] == 1


def test_tracer_wrap_restores_and_reports_missing():
    tracer = Tracer()
    original = granular_ball.make_ball
    tracer.wrap(granular_ball, "make_ball", "granular_ball.make_ball")
    tracer.wrap(granular_ball, "no_such_function", "granular_ball.no_such_function")
    assert granular_ball.make_ball is not original
    assert tracer.missing == ["granular_ball.no_such_function"]
    tracer.unwrap()
    assert granular_ball.make_ball is original


def test_counting_distance_matches_base():
    tracer = Tracer()
    base = euclidean()
    counted = tracer.distance(base)
    m, v = np.arange(6.0).reshape(3, 2), np.zeros(2)
    with tracer.operation("op"):
        assert counted.eval(m[1], v) == base.eval(m[1], v)
        assert np.array_equal(counted.rows(m, v), base.rows(m, v))
    c = tracer.counts["op"]
    assert (c.eval_calls, c.rows_calls, c.rows_points) == (1, 1, 3)
    assert (counted.name, counted.declared_kind) == (base.name, base.declared_kind)
    assert NullTracer().distance(base) is base


def test_rigid_motion_keeps_the_clustering_work():
    x = workloads.make_blobs(400, 3, 5, seed=1)
    cfg = BkmConfig(k=5, seed=3, init=Init.PLUS_PLUS)
    base = run(Dataset(x), cfg)
    for seed in (1, 2):
        moved = run(Dataset(workloads.rigid_motion(x, seed)), cfg)
        assert np.array_equal(moved[0].assignments, base[0].assignments)
        assert moved[1].distance_computations == base[1].distance_computations


def test_one_round_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verifiers", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verifiers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
