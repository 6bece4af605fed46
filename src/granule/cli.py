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
import io
import itertools
import json
import math
import sys
import time
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
    BudgetError,
    StructureError,
    _render_element,
    build_set_hgos,
    check_mash,
    parse_system_file,
)
from .granular_ball import GbConfig, LabeledDataset, generate
from .metrics import DEFAULT_TOL, NAMED_DISTANCES, Kind, classify_distance
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


def _manifest(command: str, seed: Optional[int], digest: str, config: dict) -> dict:
    """Provenance block embedded in every report; equal manifests => equal bytes."""
    return {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "input_digest": digest,
        "seed": seed,
    }


def _fields(args, *names) -> dict:
    return {name: getattr(args, name) for name in names}


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def _decode(path: str, data: bytes, newline: Optional[str] = None) -> str:
    """`data` decoded as `open` decodes by default; undecodable bytes are an ingestion error."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), newline=newline).read()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"cannot decode {path}: {exc}") from exc


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _is_int(text: str) -> bool:
    """At most one leading '-' followed by decimal digits."""
    return text.removeprefix("-").isdecimal()


def load_csv(path: str, label_column: Optional[str] = None) -> tuple[LabeledDataset, str]:
    """Read numeric feature rows with an optional label column.

    Returns the dataset and the sha256 hex digest of the file, which is read
    once, so the digest names exactly the bytes parsed.  A leading U+FEFF is
    dropped and blank lines are skipped.  The first other row is a header
    iff any of its cells fails to parse as a number.  A label column may be
    named (needs a header) or given as an index; empty label cells mean
    unlabeled.  Labels are read as integers when every present label is an
    optional '-' followed by decimal digits, and are otherwise encoded by
    their lexicographic rank.  A ragged row, a non-numeric or non-finite
    feature cell, or a cell past `csv.field_size_limit()`, is an error
    naming the row by the file line on which it ends.  The csv row loop
    `_parse_rows` gives the result wherever `_parse_whole` could differ.
    """
    data = _read(path)
    text = _decode(path, data, newline="").removeprefix("\ufeff")
    features, raw, _, _ = _parse_whole(text, label_column) or _parse_rows(path, text, label_column)
    labels: list[Optional[int]] = [None] * len(features)
    if raw is not None:
        present = sorted({lab for lab in raw if lab})
        as_int = all(_is_int(lab) for lab in present)
        codes = {lab: int(lab) if as_int else code for code, lab in enumerate(present)}
        labels = [codes.get(lab) for lab in raw]
    return LabeledDataset.build(features, labels), _digest_bytes(data)


def _parse_whole(text: str, label_column: Optional[str]):
    """`_parse_rows`' result by one `np.loadtxt` call, or None wherever the two may differ.

    Without quotes, NULs (csv refuses them before Python 3.11) or bare CRs, a csv row is its
    line split at commas; `float()` reads each cell that `loadtxt` reads to the same double.
    """
    text = text.replace("\r\n", "\n")
    lines = list(filter(None, text.split("\n")))
    if any(c in text for c in '"\0\r') or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    try:  # the header and label column from the loop over the first two lines
        _, _, has_header, label_idx = _parse_rows("", "\n".join(lines[:2]), label_column)
        rows, width = lines[has_header:], lines[has_header].count(",") + 1
        cols = None if label_idx is None else [c for c in range(width) if c != label_idx]
        features = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2, usecols=cols)
    except ValueError:  # an IngestionError, or a cell loadtxt refuses, such as a blank one
        return None
    if not np.isfinite(features).all() or label_idx is not None and any(r.count(",") != width - 1 for r in rows):
        return None
    raw = None if label_idx is None else [r.split(",")[label_idx].strip() for r in rows]
    return features, raw, has_header, label_idx


def _parse_rows(path: str, text: str, label_column: Optional[str]):
    """(features, raw labels or None, whether a header row, label index) by the csv row loop."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise IngestionError(f"row {reader.line_num}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty input")
    has_header = not all(_is_number(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    rows, lines = rows[has_header:], lines[has_header:]
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(rows[0])

    label_idx: Optional[int] = None
    if label_column is not None:
        if _is_int(label_column):
            label_idx = int(label_column)
            if not (0 <= label_idx < width):
                raise IngestionError(f"label column index {label_idx} out of range")
        else:
            if header is None:
                raise IngestionError("named label column requires a header row")
            if label_column not in header:
                raise IngestionError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
        if width == 1:
            raise IngestionError(f"row {lines[0]}: no feature columns left")

    cells = rows if label_idx is None else [r[:label_idx] + r[label_idx + 1 :] for r in rows]
    try:
        # one cast over all cells; numpy parses each str cell as float() does
        features = np.array(cells, dtype=float)
    except ValueError:
        features = None
    if features is None or not np.isfinite(features).all() or len(set(map(len, rows))) > 1:
        raise _first_bad_row(rows, lines, width, label_idx)
    raw = None if label_idx is None else [row[label_idx].strip() for row in rows]
    return features, raw, has_header, label_idx


def _first_bad_row(rows, lines, width, label_idx) -> IngestionError:
    """The error for the first row, in file order, that is ragged or has a bad feature cell."""
    for line, row in zip(lines, rows):
        if len(row) != width:
            return IngestionError(f"row {line}: expected {width} cells, got {len(row)}")
        for cno, cell in enumerate(row):
            if cno == label_idx:
                continue
            cell = cell.strip()
            if not _is_number(cell):
                return IngestionError(f"row {line}: non-numeric feature {cell!r} in column {cno}")
            if not math.isfinite(float(cell)):
                return IngestionError(f"row {line}: non-finite feature {cell!r} in column {cno}")


def _sanitize(obj):
    """Make a report JSON-safe and deterministic (sets sorted, inf/nan stringified)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_sanitize(v) for v in obj), key=lambda x: (str(type(x)), str(x)))
    if isinstance(obj, np.ndarray):  # one tolist() unless a non-finite float needs its string
        plain = obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all())
        return obj.tolist() if plain else [_sanitize(v) for v in obj.tolist()]
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


def _kmeans(args) -> tuple[BkmConfig, dict]:
    """The clustering config of cluster, lloyd and bench, and its manifest entries."""
    init = Init.PLUS_PLUS if args.init == "plusplus" else Init.RANDOM_PARTITION
    cfg = BkmConfig(k=args.k, max_iter=args.max_iter, seed=args.seed, init=init)
    return cfg, _fields(args, "init", "k", "labels", "max_iter")


def _cmd_cluster(args) -> int:
    ds, digest = load_csv(args.input, args.labels)
    cfg, config = _kmeans(args)
    runner = lloyd_run if args.command == "lloyd" else run
    clustering, stats = runner(ds.points, cfg)
    report = {
        "manifest": _manifest(args.command, args.seed, digest, config),
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
    _emit(report, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    ds, digest = load_csv(args.input, args.labels)
    cfg, config = _kmeans(args)
    repeats = []
    timings = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        fast, fast_stats = run(ds.points, cfg, record_history=True)
        t1 = time.perf_counter()
        naive, naive_stats = lloyd_run(ds.points, cfg, record_history=True)
        t2 = time.perf_counter()
        steps = itertools.zip_longest(fast.history, naive.history)  # an iteration only one side ran is None
        first_diff = next((i for i, (f, n) in enumerate(steps) if not np.array_equal(f, n)), None)
        timings.append({"accelerated_s": t1 - t0, "naive_s": t2 - t1})
        repeats.append(
            {
                "partitions_equal": bool(np.array_equal(fast.assignments, naive.assignments)),
                "histories_equal": first_diff is None,
                "first_differing_iteration": first_diff,
                "ties_equal": fast.ties == naive.ties,
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
        "manifest": _manifest("bench", args.seed, digest, {**config, "repeats": args.repeats}),
        "repeats": repeats,
        "all_partitions_equal": all(r["partitions_equal"] for r in repeats),
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
    if not all(r[key] for r in repeats for key in ("partitions_equal", "histories_equal", "ties_equal")):
        sys.stderr.write("FATAL: accelerated and naive runs differ (partition, history or ties)\n")
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_gb(args) -> int:
    ds, digest = load_csv(args.input, args.labels)
    cfg = GbConfig(
        purity_threshold=args.purity,
        min_points=args.min_points,
        split_k=args.split_k,
        max_depth=args.max_depth,
        overlap_resolution=args.overlap_resolution,
        seed=args.seed,
    )
    config = _fields(
        args, "labels", "max_depth", "min_points", "overlap_resolution", "purity", "split_k"
    )
    result = generate(ds, cfg)
    report = {
        "manifest": _manifest("gb", args.seed, digest, config),
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
    if args.max_sample < 0:
        raise ValueError("--max-sample must be at least 0 (0 means no cap)")
    ds, digest = load_csv(args.input, args.labels)
    pts = ds.points.points
    if args.max_sample and pts.shape[0] > args.max_sample:
        pts = pts[:: pts.shape[0] // args.max_sample][: args.max_sample]
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
    ok = all(flags[name] for name in _KIND_REQUIREMENTS[declared])
    config = {"declare": declared.value, **_fields(args, "labels", "max_sample", "metric", "tol")}
    report = {
        "manifest": _manifest("verify-metric", None, digest, config),
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
        ds, digest = load_csv(args.v_csv)
        v = ds.points.points
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
    config = {"grid": list(grid), **_fields(args, "center", "radius", "tol", "v_csv")}

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
        "manifest": _manifest("verify-algebra", None, digest, config),
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
        text = _decode(args.system, _read(args.system))
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
    report = {
        "manifest": _manifest("verify-axioms", None, digest, {"suite": args.suite, **source}),
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
    return [_render_element(w) for w in witness]


def _pair_str(pair):
    if pair is None:
        return None
    return [_render_element(pair.lower_part), _render_element(pair.upper_part)]


def _cmd_crrf_demo(args) -> int:
    if args.universe and args.partition:
        base, blocks = _parse_partition(args.universe, args.partition)
        space = pawlak_space(base, blocks)
        axioms = check_approx_axioms(space)
        a_tau = approximation_set(space)
        xi_tables = {}
        for variant in (1, 2, 3):
            wrapper = xi_functions(space, variant)
            validation = wrapper.validate(a_tau=a_tau)
            xi_tables[f"xi{variant}"] = {
                "defined": validation.defined_points,
                "undefined": validation.undefined_points,
                "type1_ok": validation.ok,
                "table": {_render_element(a): _pair_str(wrapper.apply(a)) for a in wrapper.domain},
            }
        digest = _digest_bytes(f"{args.universe}|{args.partition}".encode())
        config = _fields(args, "partition", "universe")
        report = {
            "manifest": _manifest("crrf-demo", None, digest, config),
            "mode": "partition",
            "space_axioms": {name: passed for name, (passed, _) in axioms.results.items()},
            "a_tau": [_render_element(a) for a in a_tau],
            "e1": [_pair_str(p) for p in e1_pairs(space)],
            "xi": xi_tables,
            "xi5_example": xi5(frozenset(blocks[0]), frozenset(base)),
        }
        _emit(report, args.out)
        return EXIT_OK
    if not args.input:
        raise IngestionError("crrf-demo needs --universe/--partition or --input")
    ds, digest = load_csv(args.input, args.labels)
    cfg = BkmConfig(k=args.k, max_iter=args.max_iter, seed=args.seed)
    trace = bkm_crrf3_trace(ds.points, cfg)
    all_pass = all(check_approx_axioms(e.space).ok for e in trace)
    config = _fields(args, "k", "labels", "max_iter")
    report = {
        "manifest": _manifest("crrf-demo", args.seed, digest, config),
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

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_out(p):
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    def add_common(p, input_required=True):
        p.add_argument("--input", required=input_required, help="CSV input path")
        p.add_argument("--labels", default=None, help="label column name or index")
        add_out(p)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=200, dest="max_iter")

    for name, handler, help in (
        ("cluster", _cmd_cluster, "accelerated ball clustering"),
        ("lloyd", _cmd_cluster, "naive full-scan clustering (oracle)"),
        ("bench", _cmd_bench, "accelerated vs naive with equality assertion"),
    ):
        p = command(name, handler, help)
        add_common(p)
        p.add_argument("--k", type=int, required=True)
        add_seed(p)
        p.add_argument("--init", choices=("random", "plusplus"), default="random")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include wall time in the JSON")

    p = command("gb", _cmd_gb, "granular-ball generation")
    add_common(p)
    p.add_argument("--purity", type=float, required=True)
    p.add_argument("--min-points", type=int, default=1, dest="min_points")
    p.add_argument("--split-k", type=int, default=2, dest="split_k")
    p.add_argument("--max-depth", type=int, default=32, dest="max_depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap-resolution", action="store_true", dest="overlap_resolution")

    p = command("verify-metric", _cmd_verify_metric, "sample-based distance axiom check")
    add_common(p)
    p.add_argument("--metric", choices=sorted(NAMED_DISTANCES), default="euclidean")
    p.add_argument("--declare", choices=[k.value for k in Kind], default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-sample", type=int, default=64, dest="max_sample")

    p = command("verify-algebra", _cmd_verify_algebra, "ball partial-operation law check")
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--v-csv", default=None, dest="v_csv", help="CSV of V points")
    p.add_argument("--grid", default=None, help="comma-separated scalar grid")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_out(p)

    p = command(
        "verify-axioms", _cmd_verify_axioms, "finite axiom check for a system file or partition"
    )
    p.add_argument("--system", default=None, help="system definition file")
    p.add_argument("--universe", default=None, help="comma-separated base elements")
    p.add_argument("--partition", default=None, help="blocks as a|b with comma members")
    p.add_argument("--suite", choices=("mash", "ggs", "pre-ggs", "pre-star-ggs"), default="ggs")
    add_out(p)

    p = command("crrf-demo", _cmd_crrf_demo, "approximation-space and clustering-trace demo")
    p.add_argument("--universe", default=None)
    p.add_argument("--partition", default=None)
    add_common(p, input_required=False)
    p.add_argument("--k", type=int, default=2)
    add_seed(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except IngestionError as exc:
        sys.stderr.write(f"ingestion error: {exc}\n")
        return EXIT_INGEST
    except StructureError as exc:
        sys.stderr.write(f"system structure error: {exc}\n")
        return EXIT_INGEST
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except BudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
