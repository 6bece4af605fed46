"""Output checks for every benchmark operation.

Each checker returns ``None`` when the output is right and a short problem
description otherwise.  ``Tally`` counts operations attempted and those whose
output failed its check; ``failed / attempted`` is the benchmark's
``failed_frac``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional, Sequence

import numpy as np


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op}: {problem}")

    def merge(self, attempted: int, failed: int, problems: Sequence[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- clustering ---------------------------------------------------------------


def cli_report_problem(exit_code: int, report: Optional[dict], run_assignments) -> Optional[str]:
    """The CLI exited 0 and its report assigns every point as the library's ``run`` does."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report is None or report.get("assignments") != np.asarray(run_assignments).tolist():
        return "report assignments differ from run"
    return None


def run_problem(run_clustering, lloyd_clustering) -> Optional[str]:
    """``run`` ends with the partition and tie report of ``lloyd_run``."""
    if not np.array_equal(run_clustering.assignments, lloyd_clustering.assignments):
        return "final assignments differ from lloyd_run"
    if list(run_clustering.ties) != list(lloyd_clustering.ties):
        return "ties differ from lloyd_run"
    return None


def lloyd_problem(clustering, x: np.ndarray) -> Optional[str]:
    """``lloyd_run`` converged to a fixed point: every point sits at a nearest center."""
    if not clustering.converged:
        return "did not converge"
    centers = clustering.centers
    dist = np.stack(
        [np.sqrt(np.sum((x - centers[j]) * (x - centers[j]), axis=1)) for j in range(centers.shape[0])],
        axis=1,
    )
    own = dist[np.arange(x.shape[0]), clustering.assignments]
    if (own > dist.min(axis=1)).any():
        return "a point is not assigned to a nearest center"
    return None


def history_problem(run_history, lloyd_history) -> Optional[str]:
    """Per-iteration assignment histories of ``run`` and ``lloyd_run`` are identical."""
    if run_history is None or lloyd_history is None:
        return "no history recorded"
    if len(run_history) != len(lloyd_history):
        return f"history lengths {len(run_history)} != {len(lloyd_history)}"
    for it, (a, b) in enumerate(zip(run_history, lloyd_history)):
        if not np.array_equal(a, b):
            return f"histories differ at iteration {it}"
    return None


# -- granular balls ----------------------------------------------------------


def gb_problem(result, n: int) -> Optional[str]:
    """Ball member sets partition 0..n-1 and every split partitions its parent."""
    members = np.sort(np.concatenate([np.asarray(b.members, dtype=int) for b in result.balls]))
    if not np.array_equal(members, np.arange(n)):
        return "ball members do not partition the dataset"
    for parent, children, ok in result.split_audit:
        joined = sorted(i for child in children for i in child)
        if not ok or joined != sorted(parent):
            return f"split of the ball starting at {parent[0]} failed its audit"
    return None


def classify_reference(balls, points: np.ndarray) -> np.ndarray:
    """Labels by least surface distance, ties to smaller radius, then lower ball id."""
    labeled = [(i, b) for i, b in enumerate(balls) if b.majority_label is not None]
    ids = np.array([i for i, _ in labeled])
    centers = np.stack([b.center for _, b in labeled])
    radii = np.array([b.radius for _, b in labeled])
    labels = np.array([b.majority_label for _, b in labeled])
    diff = points[:, None, :] - centers[None, :, :]
    surface = np.sqrt(np.sum(diff * diff, axis=2)) - radii[None, :]
    out = np.empty(points.shape[0], dtype=int)
    for p in range(points.shape[0]):
        best = np.lexsort((ids, radii, surface[p]))[0]
        out[p] = labels[best]
    return out


def classify_problem(predictions, balls, points: np.ndarray) -> Optional[str]:
    ref = classify_reference(balls, points)
    bad = np.flatnonzero(np.asarray(predictions) != ref)
    if bad.size:
        return f"{bad.size} predictions differ from the reference, first at point {int(bad[0])}"
    return None


# -- verifiers -----------------------------------------------------------------


def plain(obj):
    """JSON-ready canonical form: sets sorted, tuples as lists, inf/nan as strings."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, np.generic):
        return plain(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(plain(obj), sort_keys=True).encode()).hexdigest()


def expected_problem(actual, expected) -> Optional[str]:
    """Verdicts, witnesses and counts equal the values recorded for the fixed inputs."""
    actual = plain(actual)
    if actual == expected:
        return None
    if isinstance(actual, dict) and isinstance(expected, dict):
        keys = sorted(k for k in set(actual) | set(expected) if actual.get(k) != expected.get(k))
        return f"differs from the recorded result in {keys}"
    return "differs from the recorded result"
