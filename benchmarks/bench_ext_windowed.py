"""Extension bench: sliding-window and decaying DBSCAN under drift.

Not a paper figure — it exercises the future-work item ("data deletion
and drift") from the paper's conclusion, implemented in
``core/windowed.py``.  Three legs:

- **drift**: a drifting session stream is played into the windowed
  model; at checkpoints we compare its window-local view against a
  batch ρ-approximate run over exactly the same window contents, and
  confirm abandoned regions are forgotten.
- **eviction**: bucket expiry through the grid index's
  ``delete_batch`` at a ``window ≈ 10k`` stream.  The grid-indexed
  model must give the same view as the brute-force-indexed model on
  the same stream (both recycle slots alike, so cluster ids agree);
  the ``evict_index`` phase is the eviction cost.  Each model then
  times ``predict`` over the stream's last ``READ_POINTS`` arrivals
  (series ``read/grid`` and ``read/brute``): a read scans the core
  centers the cluster refresh gathered.
- **decay**: the TTL / exponential-decay scenarios of
  :class:`DecayingApproxDBSCAN` against the DBStream and D-Stream
  damped-window baselines — recency-view ARI on the stream's last
  window plus ingestion wall time.
"""

import numpy as np

# ``common`` puts ``src/`` on the import path, so it comes before ``repro``.
from common import format_table, timed, write_bench_artifact, write_report
from repro import (
    ApproxMetricDBSCAN,
    DecayingApproxDBSCAN,
    MetricDataset,
    WindowedApproxDBSCAN,
)
from repro.baselines.streaming.dbstream import DBStream
from repro.baselines.streaming.dstream import DStream
from repro.datasets import make_session_stream
from repro.evaluation import adjusted_rand_index
from repro.obs.recorder import series_entry

EPS, MIN_PTS, RHO = 2.5, 8, 0.5
WINDOW = 1000

#: Eviction leg: ``window ≈ 10k`` with one expiry per 200 arrivals.
EVICT_WINDOW = 10_000
EVICT_BUCKETS = 50
#: Eviction leg: ``predict`` is timed over this many final arrivals.
READ_POINTS = 1000
#: Decay leg parameters (per-arrival λ; D-Stream takes it as a factor).
DECAY_LAMBDA = 0.002
DECAY_EPS = 1.5


def run_drift(quick=False):
    n = 3000 if quick else 6000
    points, _ = make_session_stream(
        n=n, dim=6, n_clusters=3, drift=40.0, outlier_fraction=0.01, seed=0
    )
    model = WindowedApproxDBSCAN(
        EPS, MIN_PTS, rho=RHO, window=WINDOW, n_buckets=8
    )
    rows, series = [], []
    checkpoints = tuple(
        t for t in (1500, 3000, 4500, 6000) if t <= n
    )
    for t, point in enumerate(points, start=1):
        model.insert(point)
        if t in checkpoints:
            window_pts = points[t - WINDOW : t]
            batch = ApproxMetricDBSCAN(EPS, MIN_PTS, rho=RHO).fit(
                MetricDataset(window_pts)
            )
            # Agreement: label each window point via the windowed model's
            # predict() and compare partitions with the batch run.
            win_labels = np.array([model.predict(p) for p in window_pts])
            agreement = adjusted_rand_index(batch.labels, win_labels)
            # A probe far behind the drift must be forgotten.
            # With drift 40 over the stream, a point from 5 windows
            # ago is far outside every live cluster.
            stale_probe = points[max(0, t - 5 * WINDOW)]
            stale = (
                "noise" if t > 2 * WINDOW and model.predict(stale_probe) < 0
                else "live"
            )
            rows.append((
                t,
                model.n_clusters,
                batch.n_clusters,
                f"{agreement:.3f}",
                model.n_live_centers,
                stale,
            ))
            series.append(series_entry(
                f"drift/t{t}",
                ari_vs_batch=agreement,
                n_clusters=model.n_clusters,
                live_centers=model.n_live_centers,
            ))
    return rows, series


def run_eviction(quick=False):
    """Bucket expiry through the grid's ``delete_batch`` at window ≈ 10k,
    checked against the brute-force-indexed model on the same stream,
    then the read cost of each model."""
    n = 2 * EVICT_WINDOW
    rng = np.random.default_rng(0)
    stream = [rng.normal([t / 200.0, 0.0], 1.0) for t in range(n)]
    probes = [np.array([x, 0.0]) for x in np.linspace(-5.0, 105.0, 23)]
    rows, series, views = [], [], {}
    for index in ("grid", "brute"):
        model = WindowedApproxDBSCAN(
            0.3, MIN_PTS, rho=RHO, window=EVICT_WINDOW,
            n_buckets=EVICT_BUCKETS, index=index,
        )
        _, seconds = timed(lambda: model.insert_many(stream))
        evict = model.timings.phases.get("evict_index", 0.0)
        n_core = model.n_core_centers  # the refresh runs here, untimed
        reads, read_seconds = timed(
            lambda: [model.predict(p) for p in stream[-READ_POINTS:]]
        )
        views[index] = (
            [model.predict(p) for p in probes] + reads,
            model.n_clusters,
            model.n_live_centers,
        )
        per_read = read_seconds / READ_POINTS
        rows.append((
            f"window={EVICT_WINDOW}", f"index={index}",
            f"{seconds:.2f}", f"{evict:.3f}",
            model.n_evict_deletes, model.n_live_centers, n_core,
            f"{per_read * 1e6:.0f}",
        ))
        series.append(series_entry(
            f"read/{index}",
            predict_seconds=per_read,
            n_core=n_core,
        ))
        if index == "grid":
            series.append(series_entry(
                "evict/delete",
                wall=seconds,
                evict_seconds=evict,
                n_evict_deletes=model.n_evict_deletes,
                live_centers=model.n_live_centers,
            ))
    assert views["grid"] == views["brute"], (
        "the grid-indexed model must match the brute-force-indexed model"
    )
    return rows, series


def run_decay(quick=False):
    """TTL / exponential-decay scenarios against damped baselines."""
    n = 4000 if quick else 8000
    window = 800
    pts, labels = make_session_stream(
        n=n, dim=4, n_clusters=3, drift=25.0, cluster_std=0.4,
        outlier_fraction=0.01, seed=5,
    )
    recent, recent_true = pts[-window:], labels[-window:]
    rows, series = [], []

    def score(name, wall, recent_labels, memory):
        ari = adjusted_rand_index(recent_true, np.asarray(recent_labels))
        rows.append((
            f"sessions n={n}", name, f"{ari:.3f}", f"{wall:.2f}", memory
        ))
        series.append(series_entry(
            f"decay/{name}", wall=wall, ari_recent=ari, memory_points=memory
        ))

    ours_decay = DecayingApproxDBSCAN(
        DECAY_EPS, MIN_PTS, rho=RHO, decay=DECAY_LAMBDA, index="grid"
    )
    _, wall = timed(lambda: ours_decay.insert_many(pts))
    score(
        "Ours(decay)", wall,
        [ours_decay.predict(p) for p in recent], ours_decay.n_live_centers,
    )

    ours_ttl = DecayingApproxDBSCAN(
        DECAY_EPS, MIN_PTS, rho=RHO, ttl=window, index="grid"
    )
    _, wall = timed(lambda: ours_ttl.insert_many(pts))
    score(
        "Ours(ttl)", wall,
        [ours_ttl.predict(p) for p in recent], ours_ttl.n_live_centers,
    )

    dbstream = DBStream(radius=1.0, decay=DECAY_LAMBDA, gap=500)
    result, wall = timed(lambda: dbstream.fit(MetricDataset(pts)))
    score("DBStream", wall, result.labels[-window:], result.stats.get("memory_points", 0))

    dstream = DStream(cell_size=DECAY_EPS, decay=1.0 - DECAY_LAMBDA)
    result, wall = timed(lambda: dstream.fit(MetricDataset(pts)))
    score("D-Stream", wall, result.labels[-window:], result.stats.get("memory_points", 0))
    return rows, series


def write_ext_windowed_report(
    drift_rows, evict_rows, decay_rows, series, quick=False
):
    lines = [
        "Extension — sliding-window DBSCAN vs batch re-run on the same "
        f"window (eps={EPS}, MinPts={MIN_PTS}, rho={RHO}, window={WINDOW})",
        "",
    ]
    lines += format_table(
        ["t", "window clusters", "batch clusters", "ARI vs batch",
         "live centers", "stale probe"],
        drift_rows,
    )
    if evict_rows:
        lines += [
            "",
            "Bucket-expiry eviction (grid index against brute force; "
            f"identical views), then predict over the last {READ_POINTS} "
            "arrivals",
            "",
        ]
        lines += format_table(
            ["stream", "index", "wall (s)", "evict_index (s)",
             "deletes", "live centers", "core centers", "µs per predict"],
            evict_rows,
        )
    if decay_rows:
        lines += [
            "",
            "TTL / exponential decay vs damped baselines "
            f"(recency ARI over the last {800} arrivals)",
            "",
        ]
        lines += format_table(
            ["stream", "algorithm", "ARI (recent)", "wall (s)",
             "memory (points)"],
            decay_rows,
        )
    write_report("ext_windowed", lines)
    if series is not None:
        write_bench_artifact(
            "ext_windowed", series,
            config={
                "eps": EPS, "min_pts": MIN_PTS, "rho": RHO,
                "window": WINDOW, "evict_window": EVICT_WINDOW,
                "quick": quick,
            },
        )


def test_ext_windowed_drift(benchmark):
    rows, _ = benchmark.pedantic(run_drift, rounds=1, iterations=1)
    write_ext_windowed_report(rows, [], [], None)
    # The window view must stay close to the batch ground truth.
    agreements = [float(r[3]) for r in rows]
    assert sum(a >= 0.7 for a in agreements) >= len(agreements) - 1


def main(argv=None):
    """CLI entry point; ``--quick`` shortens the drift and decay legs
    so CI can emit ``BENCH_ext_windowed.json`` per run."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    drift_rows, drift_series = run_drift(quick=args.quick)
    evict_rows, evict_series = run_eviction(quick=args.quick)
    decay_rows, decay_series = run_decay(quick=args.quick)
    write_ext_windowed_report(
        drift_rows, evict_rows, decay_rows,
        drift_series + evict_series + decay_series, quick=args.quick,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
