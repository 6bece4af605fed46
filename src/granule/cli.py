"""Command-line entry point: ingestion, clustering, verification, reporting.

Every command reads CSV (or flag) input, runs the library deterministically
from an explicit seed, and emits one JSON document whose bytes depend only on
(input digest, seed, config).  Wall-clock timing therefore goes to stderr,
never into the report, unless explicitly requested.  Exit codes are stable
per failure class: 0 success / verified, 2 usage or config, 3 ingestion,
4 verification found violations, 5 internal invariant broken.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .ball_algebra import (
    DEFAULT_SCALAR_GRID,
    AmbientBall,
    CautiousBall,
    verify_laws,
)
from .ball_kmeans import BkmConfig, Init, lloyd_run, run
from .existential import (
    AxiomSuite,
    StructureError,
    build_set_hgos,
    check_mash,
    parse_system_file,
)
from .granular_ball import GbConfig, LabeledDataset, generate
from .metrics import NAMED_DISTANCES, Kind, classify_distance
from .rough_random import (
    approximation_set,
    bkm_crrf3_trace,
    check_approx_axioms,
    e1_pairs,
    pawlak_space,
    xi5,
    xi_functions,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_VERIFY = 4
EXIT_INVARIANT = 5


class IngestionError(ValueError):
    pass


@dataclass
class RunManifest:
    """Provenance block embedded in every report; equal manifests => equal bytes."""

    command: str
    seed: Optional[int]
    input_digest: str
    config: dict
    artifact_version: str = __version__

    def as_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "command": self.command,
            "config": self.config,
            "input_digest": self.input_digest,
            "seed": self.seed,
        }


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest_bytes(fh.read())


def load_csv(path: str, label_column: Optional[str] = None) -> LabeledDataset:
    """Read numeric feature rows with an optional label column.

    The first row is a header iff any of its cells fails to parse as a
    number.  A label column may be named (needs a header) or given as an
    index; empty label cells mean unlabeled.  Non-integer label values are
    encoded by their lexicographic rank.  Any ragged row or non-numeric
    feature cell is an error naming the row.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh)]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise IngestionError(f"{path}: empty input")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = not all(numeric(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(data_rows[0])

    label_idx: Optional[int] = None
    if label_column is not None:
        if label_column.lstrip("-").isdigit():
            label_idx = int(label_column)
            if not (0 <= label_idx < width):
                raise IngestionError(f"label column index {label_idx} out of range")
        else:
            if header is None:
                raise IngestionError("named label column requires a header row")
            if label_column not in header:
                raise IngestionError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)

    features: list[list[float]] = []
    raw_labels: list[Optional[str]] = []
    for rno, row in enumerate(data_rows, start=2 if has_header else 1):
        if len(row) != width:
            raise IngestionError(f"row {rno}: expected {width} cells, got {len(row)}")
        feats = []
        for cno, cell in enumerate(row):
            if cno == label_idx:
                continue
            cell = cell.strip()
            if not numeric(cell):
                raise IngestionError(f"row {rno}: non-numeric feature {cell!r} in column {cno}")
            feats.append(float(cell))
        if not feats:
            raise IngestionError(f"row {rno}: no feature columns left")
        features.append(feats)
        raw_labels.append(row[label_idx].strip() if label_idx is not None else None)

    labels: list[Optional[int]] = [None] * len(raw_labels)
    present = [(i, lab) for i, lab in enumerate(raw_labels) if lab]
    if present:
        if all(lab.lstrip("-").isdigit() for _, lab in present):
            for i, lab in present:
                labels[i] = int(lab)
        else:
            codes = {lab: code for code, lab in enumerate(sorted({lab for _, lab in present}))}
            for i, lab in present:
                labels[i] = codes[lab]
    return LabeledDataset.build(np.asarray(features, dtype=float), labels)


def _sanitize(obj):
    """Make a report JSON-safe and deterministic (sets sorted, inf/nan stringified)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_sanitize(v) for v in obj), key=lambda x: (str(type(x)), str(x)))
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _clustering_report(manifest: RunManifest, clustering, stats) -> dict:
    return {
        "manifest": manifest.as_dict(),
        "assignments": clustering.assignments,
        "centers": clustering.centers,
        "radii": clustering.radii,
        "iterations": stats.iterations,
        "distance_computations": stats.distance_computations,
        "prunings_fired": stats.prunings_fired,
        "converged": clustering.converged,
        "points_moved_per_iter": stats.points_moved_per_iter,
        "empty_cluster_repairs": stats.empty_cluster_repairs,
        "ties": [{"point": p, "clusters": list(cl)} for p, cl in clustering.ties],
    }


def _bkm_config(args) -> BkmConfig:
    init = Init.PLUS_PLUS if args.init == "plusplus" else Init.RANDOM_PARTITION
    return BkmConfig(k=args.k, max_iter=args.max_iter, seed=args.seed, init=init)


def _cmd_cluster(args, lloyd: bool) -> int:
    ds = load_csv(args.input, args.labels)
    cfg = _bkm_config(args)
    manifest = RunManifest(
        command="lloyd" if lloyd else "cluster",
        seed=args.seed,
        input_digest=_digest_file(args.input),
        config={
            "init": args.init,
            "k": args.k,
            "labels": args.labels,
            "max_iter": args.max_iter,
        },
    )
    runner = lloyd_run if lloyd else run
    clustering, stats = runner(ds.points, cfg)
    _emit(_clustering_report(manifest, clustering, stats), args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    ds = load_csv(args.input, args.labels)
    cfg = _bkm_config(args)
    manifest = RunManifest(
        command="bench",
        seed=args.seed,
        input_digest=_digest_file(args.input),
        config={
            "init": args.init,
            "k": args.k,
            "labels": args.labels,
            "max_iter": args.max_iter,
            "repeats": args.repeats,
        },
    )
    repeats = []
    timings = []
    equal = True
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        fast, fast_stats = run(ds.points, cfg)
        t1 = time.perf_counter()
        naive, naive_stats = lloyd_run(ds.points, cfg)
        t2 = time.perf_counter()
        same = bool(np.array_equal(fast.assignments, naive.assignments))
        equal = equal and same
        timings.append({"accelerated_s": t1 - t0, "naive_s": t2 - t1})
        repeats.append(
            {
                "partitions_equal": same,
                "accelerated": {
                    "iterations": fast_stats.iterations,
                    "distance_computations": fast_stats.distance_computations,
                    "prunings_fired": fast_stats.prunings_fired,
                    "points_moved_per_iter": fast_stats.points_moved_per_iter,
                },
                "naive": {
                    "iterations": naive_stats.iterations,
                    "distance_computations": naive_stats.distance_computations,
                    "points_moved_per_iter": naive_stats.points_moved_per_iter,
                },
            }
        )
    report = {
        "manifest": manifest.as_dict(),
        "repeats": repeats,
        "all_partitions_equal": equal,
        "acceleration_holds": all(
            r["accelerated"]["distance_computations"] <= r["naive"]["distance_computations"]
            for r in repeats
        ),
    }
    if args.timing:
        report["timing"] = timings  # wall time is inherently non-deterministic
    for t in timings:
        sys.stderr.write(
            f"accelerated {t['accelerated_s']:.4f}s, naive {t['naive_s']:.4f}s\n"
        )
    _emit(report, args.out)
    if not equal:
        sys.stderr.write("FATAL: accelerated and naive partitions differ\n")
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_gb(args) -> int:
    ds = load_csv(args.input, args.labels)
    cfg = GbConfig(
        purity_threshold=args.purity,
        min_points=args.min_points,
        split_k=args.split_k,
        max_depth=args.max_depth,
        overlap_resolution=args.overlap_resolution,
        seed=args.seed,
    )
    manifest = RunManifest(
        command="gb",
        seed=args.seed,
        input_digest=_digest_file(args.input),
        config={
            "labels": args.labels,
            "max_depth": args.max_depth,
            "min_points": args.min_points,
            "overlap_resolution": args.overlap_resolution,
            "purity": args.purity,
            "split_k": args.split_k,
        },
    )
    result = generate(ds, cfg)
    report = {
        "manifest": manifest.as_dict(),
        "balls": [
            {
                "id": i,
                "center": b.center,
                "radius": b.radius,
                "members": list(b.members),
                "purity": b.purity,
                "label": b.majority_label,
                "stop_reason": result.stop_reasons[i],
                "depth": result.depths[i],
            }
            for i, b in enumerate(result.balls)
        ],
        "splits": len(result.split_audit),
        "all_splits_major_minor": all(ok for _, _, ok in result.split_audit),
        "unresolved_overlaps": [list(map(list, pair)) for pair in result.unresolved_overlaps],
        "trace": [
            {
                "parent_min_index": parent[0],
                "parent_size": len(parent),
                "children_sizes": [len(c) for c in children],
                "major_minor_ok": ok,
            }
            for parent, children, ok in result.split_audit
        ],
    }
    _emit(report, args.out)
    return EXIT_OK if report["all_splits_major_minor"] else EXIT_INVARIANT


_KIND_REQUIREMENTS = {
    Kind.GENERAL: (),
    Kind.PSEUDOMETRIC: ("symmetry", "triangle"),
    Kind.SEMIMETRIC: ("identity", "symmetry"),
    Kind.METRIC: ("identity", "symmetry", "triangle"),
    Kind.QUASIMETRIC: ("triangle",),
    Kind.WEAK_QUASIMETRIC: ("k_triangle",),
}


def _cmd_verify_metric(args) -> int:
    ds = load_csv(args.input, args.labels)
    pts = ds.points.points
    if args.max_sample and pts.shape[0] > args.max_sample:
        stride = pts.shape[0] // args.max_sample
        pts = pts[:: max(stride, 1)][: args.max_sample]
    fn = NAMED_DISTANCES[args.metric]()
    declared = Kind(args.declare) if args.declare else fn.declared_kind
    report_ax = classify_distance(fn, list(pts), tol=args.tol)
    flags = {
        "identity": report_ax.identity,
        "symmetry": report_ax.symmetry,
        "triangle": report_ax.triangle,
        "pseudo_identity": report_ax.pseudo_identity,
        "k_triangle": report_ax.k_triangle[0],
    }
    required = _KIND_REQUIREMENTS[declared]
    ok = all(flags[name] for name in required)
    manifest = RunManifest(
        command="verify-metric",
        seed=None,
        input_digest=_digest_file(args.input),
        config={
            "declare": declared.value,
            "labels": args.labels,
            "max_sample": args.max_sample,
            "metric": args.metric,
            "tol": args.tol,
        },
    )
    report = {
        "manifest": manifest.as_dict(),
        "metric": args.metric,
        "declared_kind": declared.value,
        "sample_size": int(pts.shape[0]),
        "flags": flags,
        "k_triangle": {"holds": report_ax.k_triangle[0], "k": report_ax.k_triangle[1]},
        "counterexamples": report_ax.counterexamples,
        "pass": ok,
    }
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _lattice_v(center: np.ndarray, radius: float) -> np.ndarray:
    """Default V: integer lattice points inside the ball's bounding box."""
    if center.size > 3:
        raise IngestionError("default lattice V only supported up to 3 dimensions; pass --v-csv")
    axes = [
        np.arange(math.floor(c - radius), math.ceil(c + radius) + 1) for c in center
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, center.size)
    if grid.shape[0] > 2048:
        raise IngestionError("default lattice V too large; pass --v-csv")
    return grid.astype(float)


def _cmd_verify_algebra(args) -> int:
    center = np.array([float(t) for t in args.center.split(",")])
    if args.v_csv:
        v = load_csv(args.v_csv).points.points
        digest = _digest_file(args.v_csv)
    else:
        v = _lattice_v(center, args.radius)
        digest = _digest_bytes(f"lattice:{args.center}:{args.radius}".encode())
    grid = (
        tuple(float(t) for t in args.grid.split(","))
        if args.grid
        else DEFAULT_SCALAR_GRID
    )
    ambient = AmbientBall(center=center, radius=args.radius)
    cautious = CautiousBall.build(center, args.radius, v)
    if not cautious.members:
        raise IngestionError("no V point falls inside the ball")
    report_laws = verify_laws(ambient, cautious, scalar_grid=grid, tol=args.tol)
    manifest = RunManifest(
        command="verify-algebra",
        seed=None,
        input_digest=digest,
        config={
            "center": args.center,
            "grid": list(grid),
            "radius": args.radius,
            "tol": args.tol,
            "v_csv": args.v_csv,
        },
    )

    def laws_dict(laws):
        return {
            name: {
                "holds": r.holds,
                "checked": r.checked,
                "counterexample": r.counterexample,
                "note": r.note,
            }
            for name, r in laws.items()
        }

    report = {
        "manifest": manifest.as_dict(),
        "v_size": int(v.shape[0]),
        "member_count": len(cautious.members),
        "ambient_laws": laws_dict(report_laws.ambient),
        "cautious_laws": laws_dict(report_laws.cautious),
        "dom_contained": report_laws.dom_contained,
        "properness_witness": report_laws.properness_witness,
        "scal2_reverse_gaps": report_laws.scal2_reverse_gaps,
        "pass": report_laws.all_hold,
    }
    _emit(report, args.out)
    return EXIT_OK if report_laws.all_hold else EXIT_VERIFY


def _parse_partition(universe: str, partition: str):
    base = [t.strip() for t in universe.split(",") if t.strip()]
    blocks = [
        [t.strip() for t in blk.split(",") if t.strip()]
        for blk in partition.split("|")
        if blk.strip()
    ]
    return base, blocks


def _cmd_verify_axioms(args) -> int:
    suite = AxiomSuite.named(args.suite)
    if args.system:
        with open(args.system) as fh:
            text = fh.read()
        system = parse_system_file(text)
        digest = _digest_bytes(text.encode())
        source = {"system": args.system}
    elif args.universe and args.partition:
        base, blocks = _parse_partition(args.universe, args.partition)
        system = build_set_hgos(base, blocks)
        digest = _digest_bytes(f"{args.universe}|{args.partition}".encode())
        source = {"partition": args.partition, "universe": args.universe}
    else:
        raise IngestionError("verify-axioms needs --system or --universe/--partition")
    report_mash = check_mash(system, suite)
    manifest = RunManifest(
        command="verify-axioms",
        seed=None,
        input_digest=digest,
        config={"suite": args.suite, **source},
    )
    report = {
        "manifest": manifest.as_dict(),
        "suite": args.suite,
        "universe_size": system.n,
        "axioms": {
            name: {"passed": r.passed, "witness": _witness_str(r.witness)}
            for name, r in report_mash.results.items()
        },
        "pass": report_mash.ok,
    }
    _emit(report, args.out)
    return EXIT_OK if report_mash.ok else EXIT_VERIFY


def _witness_str(witness):
    if witness is None:
        return None
    return [str(w) for w in witness]


def _set_str(s) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def _cmd_crrf_demo(args) -> int:
    if args.universe and args.partition:
        base, blocks = _parse_partition(args.universe, args.partition)
        space = pawlak_space(base, blocks)
        axioms = check_approx_axioms(space)
        a_tau = approximation_set(space)
        pairs = e1_pairs(space)
        xi_tables = {}
        for variant in (1, 2, 3):
            wrapper = xi_functions(space, variant)
            validation = wrapper.validate(a_tau=a_tau)
            xi_tables[f"xi{variant}"] = {
                "defined": validation.defined_points,
                "undefined": validation.undefined_points,
                "type1_ok": validation.ok,
                "table": {
                    _set_str(a): (
                        None
                        if wrapper.apply(a) is None
                        else [_set_str(wrapper.apply(a).lower_part), _set_str(wrapper.apply(a).upper_part)]
                    )
                    for a in wrapper.domain
                },
            }
        digest = _digest_bytes(f"{args.universe}|{args.partition}".encode())
        manifest = RunManifest(
            command="crrf-demo",
            seed=None,
            input_digest=digest,
            config={"partition": args.partition, "universe": args.universe},
        )
        report = {
            "manifest": manifest.as_dict(),
            "mode": "partition",
            "space_axioms": {name: passed for name, (passed, _) in axioms.results.items()},
            "a_tau": [_set_str(a) for a in a_tau],
            "e1": [[_set_str(p.lower_part), _set_str(p.upper_part)] for p in pairs],
            "xi": xi_tables,
            "xi5_example": xi5(frozenset(blocks[0]), frozenset(base)),
        }
        _emit(report, args.out)
        return EXIT_OK
    if not args.input:
        raise IngestionError("crrf-demo needs --universe/--partition or --input")
    ds = load_csv(args.input, args.labels)
    cfg = BkmConfig(k=args.k, max_iter=args.max_iter, seed=args.seed)
    trace = bkm_crrf3_trace(ds.points, cfg)
    all_pass = all(check_approx_axioms(e.space).ok for e in trace)
    manifest = RunManifest(
        command="crrf-demo",
        seed=args.seed,
        input_digest=_digest_file(args.input),
        config={"k": args.k, "labels": args.labels, "max_iter": args.max_iter},
    )
    report = {
        "manifest": manifest.as_dict(),
        "mode": "clustering-trace",
        "iterations": len(trace),
        "all_spaces_pass_axioms": all_pass,
        "final_entry_fixed_point": trace[-1].fixed_point if trace else None,
        "trace": [
            {
                "iteration": e.iteration,
                "fixed_point": e.fixed_point,
                "partition": [list(block) for block in e.partition],
                "crrf_total": e.crrf.validate().total,
                "metadata": e.metadata,
            }
            for e in trace
        ],
    }
    _emit(report, args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granule",
        description="Ball clustering, granular-ball classification and axiom verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="CSV input path")
            p.add_argument("--labels", default=None, help="label column name or index")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    def add_kmeans(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
        p.add_argument("--init", choices=("random", "plusplus"), default="random")

    p = sub.add_parser("cluster", help="accelerated ball clustering")
    add_common(p)
    add_kmeans(p)

    p = sub.add_parser("lloyd", help="naive full-scan clustering (oracle)")
    add_common(p)
    add_kmeans(p)

    p = sub.add_parser("bench", help="accelerated vs naive with equality assertion")
    add_common(p)
    add_kmeans(p)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include wall time in the JSON")

    p = sub.add_parser("gb", help="granular-ball generation")
    add_common(p)
    p.add_argument("--purity", type=float, required=True)
    p.add_argument("--min-points", type=int, default=1, dest="min_points")
    p.add_argument("--split-k", type=int, default=2, dest="split_k")
    p.add_argument("--max-depth", type=int, default=32, dest="max_depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap-resolution", action="store_true", dest="overlap_resolution")

    p = sub.add_parser("verify-metric", help="sample-based distance axiom check")
    add_common(p)
    p.add_argument("--metric", choices=sorted(NAMED_DISTANCES), default="euclidean")
    p.add_argument("--declare", choices=[k.value for k in Kind], default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-sample", type=int, default=64, dest="max_sample")

    p = sub.add_parser("verify-algebra", help="ball partial-operation law check")
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--v-csv", default=None, dest="v_csv", help="CSV of V points")
    p.add_argument("--grid", default=None, help="comma-separated scalar grid")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-axioms", help="finite axiom check for a system file or partition")
    p.add_argument("--system", default=None, help="system definition file")
    p.add_argument("--universe", default=None, help="comma-separated base elements")
    p.add_argument("--partition", default=None, help="blocks as a|b with comma members")
    p.add_argument("--suite", choices=("mash", "ggs", "pre-ggs", "pre-star-ggs"), default="ggs")
    p.add_argument("--out", default=None)

    p = sub.add_parser("crrf-demo", help="approximation-space and clustering-trace demo")
    p.add_argument("--universe", default=None)
    p.add_argument("--partition", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    p.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "cluster":
            return _cmd_cluster(args, lloyd=False)
        if args.command == "lloyd":
            return _cmd_cluster(args, lloyd=True)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "gb":
            return _cmd_gb(args)
        if args.command == "verify-metric":
            return _cmd_verify_metric(args)
        if args.command == "verify-algebra":
            return _cmd_verify_algebra(args)
        if args.command == "verify-axioms":
            return _cmd_verify_axioms(args)
        if args.command == "crrf-demo":
            return _cmd_crrf_demo(args)
        parser.error(f"unknown command {args.command}")
        return EXIT_USAGE
    except IngestionError as exc:
        sys.stderr.write(f"ingestion error: {exc}\n")
        return EXIT_INGEST
    except StructureError as exc:
        sys.stderr.write(f"system structure error: {exc}\n")
        return EXIT_INGEST
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
