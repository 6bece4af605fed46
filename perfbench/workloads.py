"""The benchmark workloads: inputs, closed-loop rounds, checks, layer metrics.

Every workload is a closed loop: one caller makes a call, waits for it to
return and makes the next.  A round is one pass over the workload's three
timed calls, which report as ``op1``, ``op2`` and ``op3``; the end-to-end
metrics are medians over rounds.  Inputs come only from the workload seed:

* The clustering and granular-ball inputs are fixed base sets (data seed 1)
  moved by a random rigid motion (rotation plus translation) drawn from the
  seed.  Euclidean k-means, its ``++`` init and the granular-ball splits are
  invariant under rigid motions, so every seed gives new coordinates but the
  same iterations, distance counts and balls.  Without that, the number of
  iterations alone varies threefold between seeds and no run-to-run bound
  could hold.
* The verifier inputs are fixed, so that their verdicts, witnesses and
  counts can be compared with the values recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from granule import ball_algebra, cli, existential, granular_ball, rough_random
from granule.ball_algebra import CautiousBall, verify_laws
from granule.ball_kmeans import BkmConfig, Dataset, Init, init_clusters, lloyd_run, run
from granule.existential import AxiomSuite, build_set_hgos, check_mash
from granule.granular_ball import GbConfig, LabeledDataset, classify, generate
from granule.metrics import classify_distance, euclidean, manhattan
from granule.rough_random import check_approx_axioms, pawlak_space

import checks

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SETUP_REPEATS = 5


# -- input recipes -------------------------------------------------------------


def make_blobs(n, d, k, seed, spread=10.0, std=1.0):
    """k Gaussian blobs with grid-spread centers; returns the (n, d) array.

    The recipe of the package's test suite, copied so the benchmark stands
    alone.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, spread, (k, d)) * 2.0
    sizes = rng.multinomial(n, np.ones(k) / k)
    parts = [rng.normal(c, std, (max(int(s), 1), d)) for c, s in zip(centers, sizes)]
    x = np.concatenate(parts)[:n]
    if x.shape[0] < n:
        x = np.concatenate([x, rng.normal(0, std, (n - x.shape[0], d))])
    return x


def rigid_motion(x: np.ndarray, seed: int) -> np.ndarray:
    """x rotated by a random orthogonal matrix and shifted, both drawn from seed."""
    d = x.shape[1]
    rng = np.random.default_rng([seed, d])
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    return x @ q + rng.uniform(-50.0, 50.0, d)


def noisy_classes(n, d=4, classes=4, seed=1, spread=7.0, noise=0.05):
    """Gaussian classes with a share ``noise`` of labels redrawn at random."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, spread, (classes, d))
    y = rng.integers(0, classes, n)
    x = rng.normal(centers[y], 1.0)
    flip = rng.random(n) < noise
    return x, np.where(flip, rng.integers(0, classes, n), y)


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


def random_partition(rng, size):
    labels = rng.integers(0, rng.integers(1, size + 1), size)
    return [[int(i) for i in np.flatnonzero(labels == v)] for v in np.unique(labels)]


def lattice(radius: float, dim: int = 2) -> np.ndarray:
    """Integer lattice points of the bounding box of the ball at the origin."""
    r = int(np.ceil(radius))
    axes = [np.arange(-r, r + 1)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim).astype(float)


def array_record(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {"shape": list(a.shape), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}


def file_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


# -- workloads -------------------------------------------------------------------


class Workload:
    """Inputs, one closed-loop round of three timed calls, output checks, layer metrics.

    ``ops`` names the three calls in round order.
    """

    name = ""
    ops: tuple = ()

    def __init__(self, seed: int, workdir: Path, tracer, tally: checks.Tally):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.tally = tally
        self.inputs: dict = {}

    def setup(self) -> float:
        """Build the inputs and warm up, SETUP_REPEATS times; the median set-up time."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.build_inputs()
            self.warm_up()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def timed(self, op: str, fn):
        with self.tracer.operation(op):
            start = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - start
        return out, seconds

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, rno: int) -> tuple[dict, dict]:
        """Seconds of each timed call (``op1_s``..``op3_s``) and the layer metrics.

        The layer metrics are empty in the untraced run.
        """
        raise NotImplementedError

    def install_wrappers(self) -> None:
        """Wrap the package functions whose spans the traced run reports."""

    def final_checks(self) -> None:
        """Checks made once per process, outside the rounds."""


SLOTS = ("op1", "op2", "op3")


def op_ids(rno: int) -> list:
    """Operation ids of one round's calls; the spans of a call carry its id."""
    return [f"{rno}:{slot}" for slot in SLOTS]


def slot_times(*seconds) -> dict:
    return {f"{slot}_s": s for slot, s in zip(SLOTS, seconds)}


class KMeans(Workload):
    ops = ("cli.main cluster", "run", "lloyd_run")
    n = d = k = 0

    def build_inputs(self):
        x = rigid_motion(make_blobs(self.n, self.d, self.k, seed=1), self.seed)
        self.csv = self.workdir / f"{self.name}.csv"
        np.savetxt(self.csv, x, delimiter=",", fmt="%.17g")
        self.out = self.workdir / f"{self.name}.json"
        self.ds = Dataset(x)
        self.cfg = BkmConfig(k=self.k, seed=3, init=Init.PLUS_PLUS)
        self.inputs = {"points": array_record(self.ds.points), "csv": file_record(self.csv)}

    def warm_up(self):
        small = self.workdir / "warm.csv"
        np.savetxt(small, self.ds.points[:200], delimiter=",", fmt="%.17g")
        cfg = BkmConfig(k=4, seed=3, init=Init.PLUS_PLUS)
        run(Dataset(self.ds.points[:200]), cfg)
        lloyd_run(Dataset(self.ds.points[:200]), cfg)
        cli.main(["cluster", "--input", str(small), "--k", "4", "--seed", "3",
                  "--init", "plusplus", "--out", str(self.out)])

    def cli_argv(self):
        return ["cluster", "--input", str(self.csv), "--k", str(self.k), "--seed", "3",
                "--init", "plusplus", "--out", str(self.out)]

    def install_wrappers(self):
        t = self.tracer
        t.wrap(cli, "load_csv", "cli.load_csv")
        t.wrap(cli, "run", "cli.run")

    def round(self, rno):
        cfg_run = BkmConfig(k=self.k, seed=3, init=Init.PLUS_PLUS,
                            distance=self.tracer.distance(euclidean()))
        ops = op_ids(rno)
        code, t1 = self.timed(ops[0], lambda: cli.main(self.cli_argv()))
        (c_run, s_run), t2 = self.timed(ops[1], lambda: run(self.ds, cfg_run))
        (c_ll, s_ll), t3 = self.timed(ops[2], lambda: lloyd_run(self.ds, self.cfg))

        report = json.loads(self.out.read_text()) if code == 0 else None
        self.tally.record("op1", checks.cli_report_problem(code, report, c_run.assignments))
        self.tally.record("op2", checks.run_problem(c_run, c_ll))
        self.tally.record("op3", checks.lloyd_problem(c_ll, self.ds.points))
        times = slot_times(t1, t2, t3)
        if not self.tracer.enabled:
            return times, {}

        t = self.tracer
        _, init_s = self.timed(f"{rno}:init", lambda: init_clusters(self.ds, self.cfg))
        cli_missing = "cli.load_csv" in t.missing or "cli.run" in t.missing
        run_d = getattr(s_run, "distance_computations", None)
        lloyd_d = getattr(s_ll, "distance_computations", None)
        layer = {
            "cli.load_csv_s": None if cli_missing else t.seconds(ops[0], "cli.load_csv"),
            "cli.report_s": None if cli_missing else t.self_seconds(ops[0], ops[0]),
            "ball_kmeans.iterations": getattr(s_run, "iterations", None),
            "ball_kmeans.run_distances": run_d,
            "ball_kmeans.lloyd_distances": lloyd_d,
            "ball_kmeans.distance_ratio": run_d / lloyd_d if run_d and lloyd_d else None,
            "ball_kmeans.prunings_fired": getattr(s_run, "prunings_fired", None),
            "ball_kmeans.neighbor_free_clusters": getattr(s_run, "neighbor_free_stable_clusters", None),
            "ball_kmeans.empty_cluster_repairs": getattr(s_run, "empty_cluster_repairs", None),
            "ball_kmeans.ties": len(c_run.ties),
            "ball_kmeans.init_s": init_s,
            "ball_kmeans.run_ns_per_distance": t2 / run_d * 1e9 if run_d else None,
            "ball_kmeans.lloyd_ns_per_distance": t3 / lloyd_d * 1e9 if lloyd_d else None,
        }
        layer.update(distance_layer(t, ops[1]))
        return times, layer

    def final_checks(self):
        c_run, _ = run(self.ds, self.cfg, record_history=True)
        c_ll, _ = lloyd_run(self.ds, self.cfg, record_history=True)
        self.tally.record("history", checks.history_problem(c_run.history, c_ll.history))


class KMeansBlobs(KMeans):
    name, n, d, k = "kmeans-blobs", 30000, 8, 30


class KMeansManyK(KMeans):
    name, n, d, k = "kmeans-manyk", 5000, 2, 100


class GbNoisy(Workload):
    name = "gb-noisy"
    ops = ("generate, overlap resolution, n=1000", "classify x1000", "generate, n=4000")
    N = 1000       # training points of op1; as many held-out points for op2
    N_LARGE = 4000  # op3: the split path alone, on a larger set of the same recipe

    def build_inputs(self):
        x, y = noisy_classes(2 * self.N + self.N_LARGE)
        x = rigid_motion(x, self.seed)
        self.ds = LabeledDataset.build(x[: self.N], y[: self.N].tolist())
        self.held_out = x[self.N : 2 * self.N]
        self.large = LabeledDataset.build(x[2 * self.N :], y[2 * self.N :].tolist())
        self.inputs = {"points": array_record(x), "labels": array_record(y)}

    def warm_up(self):
        small = LabeledDataset.build(self.ds.points.points[:100], self.ds.labels[:100])
        res = generate(small, GbConfig(purity_threshold=0.95, min_points=4, overlap_resolution=True))
        classify(res.balls, self.held_out[0])

    def install_wrappers(self):
        t = self.tracer
        t.wrap(granular_ball, "run", "ball_kmeans.run")
        t.wrap(granular_ball, "split", "granular_ball.split")
        t.wrap(granular_ball, "make_ball", "granular_ball.make_ball")
        t.wrap(granular_ball, "heterogeneous_overlap", "granular_ball.heterogeneous_overlap", leaf=True)

    def round(self, rno):
        ops = op_ids(rno)
        cfg = GbConfig(purity_threshold=0.95, min_points=4, overlap_resolution=True)
        res, t1 = self.timed(ops[0], lambda: generate(self.ds, cfg))
        dist = self.tracer.distance(euclidean())
        preds, t2 = self.timed(ops[1], lambda: [classify(res.balls, p, distance=dist) for p in self.held_out])
        cfg_plain = GbConfig(purity_threshold=0.95, min_points=4)
        res_large, t3 = self.timed(ops[2], lambda: generate(self.large, cfg_plain))

        self.tally.record("op1", checks.gb_problem(res, self.N))
        self.tally.record("op2", checks.classify_problem(preds, res.balls, self.held_out))
        self.tally.record("op3", checks.gb_problem(res_large, self.N_LARGE))
        times = slot_times(t1, t2, t3)
        if not self.tracer.enabled:
            return times, {}

        t = self.tracer
        op = ops[0]
        layer = {
            "granular_ball.balls": len(res.balls),
            "granular_ball.splits": len(res.split_audit),
            "granular_ball.unresolved_overlaps": len(res.unresolved_overlaps),
            "granular_ball.classify_us_per_point": t2 / len(self.held_out) * 1e6,
        }
        for reason in ("purity", "min_points", "max_depth", "split_refused", "overlap_resolution"):
            layer[f"granular_ball.stop.{reason}"] = res.stop_reasons.count(reason)
        if "ball_kmeans.run" not in t.missing:
            calls = t.calls(op, "ball_kmeans.run")
            seconds = t.seconds(op, "ball_kmeans.run")
            layer.update({
                "ball_kmeans.run_calls": calls,
                "ball_kmeans.run_in_generate_s": seconds,
                "ball_kmeans.us_per_run_call": seconds / calls * 1e6 if calls else None,
            })
        if "granular_ball.split" not in t.missing:
            layer["granular_ball.split_s"] = t.seconds(op, "granular_ball.split")
        if "granular_ball.make_ball" not in t.missing:
            layer["granular_ball.make_ball_s"] = t.seconds(op, "granular_ball.make_ball")
            layer["granular_ball.make_ball_calls"] = t.calls(op, "granular_ball.make_ball")
        if "granular_ball.heterogeneous_overlap" not in t.missing:
            calls, seconds = t.leaf(op, "granular_ball.heterogeneous_overlap")
            layer["granular_ball.overlap_checks"] = calls
            layer["granular_ball.overlap_check_s"] = seconds
        if not t.missing:
            layer["granular_ball.generate_self_s"] = t.self_seconds(op, op)
        layer.update(distance_layer(t, ops[1]))
        return times, layer


class Verifiers(Workload):
    name = "verifiers"
    ops = ("CautiousBall.build + verify_laws, classify_distance",
           "build_set_hgos + check_mash(ggs)",
           "pawlak_space + check_approx_axioms")
    RADIUS = 2.0            # 13 lattice members
    MASH_STRIDE = 4         # every 4th of the 203 partitions of a 6-element set
    APPROX_SPACES = 8       # partitions of a 10-element universe
    METRIC_POINTS = 150

    def fixed_inputs(self):
        self.v = lattice(self.RADIUS)
        self.parts6 = list(set_partitions(list(range(6))))[:: self.MASH_STRIDE]
        rng = np.random.default_rng(0)
        self.parts10 = [random_partition(rng, 10) for _ in range(self.APPROX_SPACES)]
        self.sample = np.random.default_rng(1).normal(size=(self.METRIC_POINTS, 3))

    def build_inputs(self):
        self.fixed_inputs()
        self.expected = json.loads(EXPECTED_PATH.read_text())
        self.inputs = {"lattice": array_record(self.v),
                       "partitions6": {"count": len(self.parts6), "sha256": checks.digest(self.parts6)},
                       "partitions10": {"count": len(self.parts10), "sha256": checks.digest(self.parts10)},
                       "metric_sample": array_record(self.sample)}

    def warm_up(self):
        small = CautiousBall.build(np.zeros(2), 1.0, lattice(1.0))
        verify_laws(small.ambient, small)
        check_mash(build_set_hgos(range(3), [[0], [1, 2]]), AxiomSuite.ggs())
        check_approx_axioms(pawlak_space(range(3), [[0], [1, 2]]))
        classify_distance(manhattan(), self.sample[:5])

    def install_wrappers(self):
        t = self.tracer
        t.wrap(ball_algebra.CautiousBall, "contains", "ball_algebra.contains", leaf=True)
        t.wrap(ball_algebra.AmbientBall, "contains", "ball_algebra.contains", leaf=True)
        t.wrap(existential, "check_admissible", "existential.check_admissible")
        t.wrap(rough_random.ApproxSpace, "approx", "rough_random.approx", leaf=True)

    def laws(self):
        t = self.tracer
        with t.span("ball_algebra.verify_laws"):
            ball = CautiousBall.build(np.zeros(2), self.RADIUS, self.v, distance=t.distance(euclidean()))
            report = verify_laws(ball.ambient, ball)
        with t.span("metrics.classify_distance"):
            metric = classify_distance(t.distance(manhattan()), self.sample)
        return ball, report, metric

    def mash(self):
        out = []
        for blocks in self.parts6:
            with self.tracer.span("existential.build_set_hgos"):
                system = build_set_hgos(range(6), blocks)
            with self.tracer.span("existential.check_mash"):
                out.append((system, check_mash(system, AxiomSuite.ggs())))
        return out

    def approx(self):
        out = []
        for blocks in self.parts10:
            with self.tracer.span("rough_random.pawlak_space"):
                space = pawlak_space(range(10), blocks)
            out.append(check_approx_axioms(space))
        return out

    def round(self, rno):
        ops = op_ids(rno)
        (ball, laws, metric), t1 = self.timed(ops[0], self.laws)
        mash, t2 = self.timed(ops[1], self.mash)
        approx, t3 = self.timed(ops[2], self.approx)

        self.tally.record("op1", checks.expected_problem(
            {"laws": laws_record(ball, laws), "metric": vars(metric)},
            {"laws": self.expected["laws"], "metric": self.expected["metric"]}))
        self.tally.record("op2", checks.expected_problem(
            mash_record([r for _, r in mash]), self.expected["mash"]))
        self.tally.record("op3", checks.expected_problem(approx_record(approx), self.expected["approx"]))
        times = slot_times(t1, t2, t3)
        if not self.tracer.enabled:
            return times, {}

        t = self.tracer
        instances = laws_instances(laws)
        laws_s = t.seconds(ops[0], "ball_algebra.verify_laws")
        layer = {
            "ball_algebra.members": len(ball.members),
            "ball_algebra.law_instances": instances,
            "ball_algebra.instances_per_s": instances / laws_s,
            "existential.systems": len(mash),
            "existential.elements_per_system": statistics.mean(s.n for s, _ in mash),
            "existential.build_set_hgos_s": t.seconds(ops[1], "existential.build_set_hgos"),
            "rough_random.spaces": len(approx),
            "rough_random.pawlak_space_s": t.seconds(ops[2], "rough_random.pawlak_space"),
        }
        if "ball_algebra.contains" not in t.missing:
            calls, seconds = t.leaf(ops[0], "ball_algebra.contains")
            layer["ball_algebra.contains_calls"] = calls
            layer["ball_algebra.contains_s"] = seconds
        if "existential.check_admissible" not in t.missing:
            layer["existential.check_mash_self_s"] = t.self_seconds(ops[1], "existential.check_mash")
            layer["existential.check_admissible_calls"] = t.calls(ops[1], "existential.check_admissible")
            layer["existential.check_admissible_s"] = t.seconds(ops[1], "existential.check_admissible")
        if "rough_random.approx" not in t.missing:
            calls, seconds = t.leaf(ops[2], "rough_random.approx")
            layer["rough_random.approx_calls"] = calls
            layer["rough_random.approx_s"] = seconds
        layer.update(distance_layer(t, ops[0]))
        return times, layer


WORKLOADS = {w.name: w for w in (KMeansBlobs, KMeansManyK, GbNoisy, Verifiers)}


def laws_record(ball, report) -> dict:
    def laws(d):
        return {name: [r.holds, r.checked, r.counterexample, r.note] for name, r in d.items()}

    return checks.plain({
        "members": ball.members,
        "ambient": laws(report.ambient),
        "cautious": laws(report.cautious),
        "dom": [report.dom_contained, report.dom_checked, report.dom_counterexample],
        "properness_witness": report.properness_witness,
        "scal2_reverse_gaps": report.scal2_reverse_gaps,
    })


def laws_instances(report) -> int:
    checked = sum(r.checked for r in report.ambient.values())
    checked += sum(r.checked for r in report.cautious.values())
    return checked + report.dom_checked


def mash_record(reports) -> dict:
    results = [{ax: [r.passed, r.witness] for ax, r in rep.results.items()} for rep in reports]
    return {"systems": len(reports), "sha256": checks.digest(results),
            "failed": {str(i): rep.failed() for i, rep in enumerate(reports) if not rep.ok}}


def approx_record(reports) -> dict:
    results = [[rep.sampled, rep.results] for rep in reports]
    return {"spaces": len(reports), "sha256": checks.digest(results),
            "failed": {str(i): rep.failed() for i, rep in enumerate(reports) if not rep.ok}}


def distance_layer(tracer, op: str) -> dict:
    c = tracer.counts.get(op)
    if c is None:
        return {}
    return {
        "metrics.eval_calls": c.eval_calls,
        "metrics.rows_calls": c.rows_calls,
        "metrics.rows_points": c.rows_points,
        "metrics.points_per_rows_call": c.rows_points / c.rows_calls if c.rows_calls else 0.0,
    }


def record_expected() -> dict:
    """The verifier results on the fixed inputs, as stored in expected.json."""
    from tracing import NullTracer

    wl = Verifiers(1, Path("."), NullTracer(), checks.Tally())
    wl.fixed_inputs()
    ball, laws, metric = wl.laws()
    return {
        "laws": laws_record(ball, laws),
        "metric": checks.plain(vars(metric)),
        "mash": mash_record([r for _, r in wl.mash()]),
        "approx": approx_record(wl.approx()),
    }


if __name__ == "__main__":
    # Re-record expected.json (only when the verifier inputs change):
    #   PYTHONPATH=src python3 perfbench/workloads.py > perfbench/expected.json
    print(json.dumps(record_expected(), indent=1, sort_keys=True))
