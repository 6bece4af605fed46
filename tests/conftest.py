import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def counting(base, log):
    """``base`` with each eval call logged as ("eval", 1) and each rows call as ("rows", m)."""
    return dataclasses.replace(
        base,
        eval=lambda a, b: log.append(("eval", 1)) or base.eval(a, b),
        rows=lambda m, v: log.append(("rows", m.shape[0])) or base.rows(m, v),
    )


def make_blobs(n, d, k, seed, spread=10.0, std=1.0):
    """k Gaussian blobs with grid-spread centers; returns the (n, d) array."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, spread, (k, d)) * 2.0
    sizes = rng.multinomial(n, np.ones(k) / k)
    parts = [rng.normal(c, std, (max(int(s), 1), d)) for c, s in zip(centers, sizes)]
    x = np.concatenate(parts)[:n]
    if x.shape[0] < n:
        x = np.concatenate([x, rng.normal(0, std, (n - x.shape[0], d))])
    return x


def two_blob_labeled(n_per=100, d=2, gap=8.0, seed=5, std=1.0):
    rng = np.random.default_rng(seed)
    x = np.concatenate(
        [rng.normal(0.0, std, (n_per, d)), rng.normal(gap, std, (n_per, d))]
    )
    labels = [0] * n_per + [1] * n_per
    return x, labels


@pytest.fixture
def blob_maker():
    return make_blobs


@pytest.fixture
def labeled_blobs():
    return two_blob_labeled
