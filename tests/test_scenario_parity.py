"""Scenario-parity suite: exact and approx agree on clean scenarios.

On well-separated blobs and moons, the exact solver and the
ρ-approximate one must tell the same story under **every**
``REPRO_DEFAULT_INDEX`` setting.  The check is an ARI band, not a
strict equivalence: approx labelings are net-dependent and only the
ρ-approximation is guaranteed.
"""

from __future__ import annotations

import pytest

from repro.core.approx import ApproxMetricDBSCAN
from repro.core.exact import MetricDBSCAN
from repro.datasets import make_blobs, make_moons
from repro.evaluation import adjusted_rand_index
from repro.metricspace import MetricDataset

BACKENDS = ["auto", "brute", "grid", "covertree"]

#: Minimum agreement between exact and approx on the clean scenarios
#: below.
ARI_FLOOR = 0.99


def _scenarios():
    blobs, _ = make_blobs(
        n=620, n_clusters=3, dim=2, std=0.35, spread=9.0,
        outlier_fraction=0.04, seed=21,
    )
    moons, _ = make_moons(n=620, noise=0.05, outlier_fraction=0.03, seed=8)
    return [("blobs", blobs, 0.7, 6), ("moons", moons, 0.14, 6)]


SCENARIOS = _scenarios()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,pts,eps,min_pts", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
class TestScenarioParity:
    def test_all_modes_agree(
        self, monkeypatch, backend, name, pts, eps, min_pts
    ):
        monkeypatch.setenv("REPRO_DEFAULT_INDEX", backend)
        ds = MetricDataset(pts)
        exact = MetricDBSCAN(eps, min_pts).fit(ds)
        approx = ApproxMetricDBSCAN(eps, min_pts).fit(ds)
        ari = adjusted_rand_index(exact.labels, approx.labels)
        assert ari >= ARI_FLOOR, (
            f"exact vs approx on {name}/{backend}: ARI {ari:.4f} "
            f"< {ARI_FLOOR}"
        )
