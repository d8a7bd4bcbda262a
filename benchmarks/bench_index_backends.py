"""Neighbor-index backend comparison across dimensions (PR-2 gate).

Two workloads, each run per backend with identical inputs:

- **raw range queries** — build + full-batch ε-range queries over
  synthetic blobs at several ambient dimensions, reporting wall time
  and the ``n_candidates`` exact-filter counts that explain it;
- **end-to-end clustering** — ``OriginalDBSCAN(index=...)`` on a
  ``d >= 16``, ``n >= 20k`` workload (the regime where the dense
  ``Θ(n²)`` scan stops being viable), asserting *label-identical*
  output across backends and a wall-clock win for a sparse backend
  over brute force;
- **streaming** — ``StreamingApproxDBSCAN`` on the process default
  index and on ``brute`` and ``grid``: labels must be bit-identical,
  and the report shows the candidate counts plus the
  ``peak_center_matrix_bytes`` summary-merge footprint per leg.

Run directly::

    PYTHONPATH=src python benchmarks/bench_index_backends.py [--quick]

or through pytest (``pytest benchmarks/bench_index_backends.py``).
The cover tree participates in the dimension sweep at reduced ``n``
(its pure-Python construction dominates otherwise); the acceptance
assertion rides on the grid backend.
"""

import argparse
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _p in (str(_HERE), str(_HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np

from repro.baselines import OriginalDBSCAN
from repro.core import StreamingApproxDBSCAN
from repro.datasets import make_blobs
from repro.index import build_index
from repro.metricspace import MetricDataset

from repro.obs.recorder import series_entry

from common import format_table, write_bench_artifact, write_report

MIN_PTS = 10

#: (dimension, n per backend) for the raw range-query sweep; the cover
#: tree runs at ``n // 4`` to keep its Python construction in budget.
SWEEP_DIMS = (2, 16, 32)


def _blob_workload(n, dim, seed=0):
    # Well-separated blobs plus scattered outliers — the paper's data
    # model, and the regime the index targets: ε-neighborhoods are
    # *local* (a small fraction of n), so pruned candidate generation
    # has something to prune.  ε sits just under the within-blob
    # distance bulk (~std·sqrt(2·dim)), giving realistic
    # DBSCAN-operating-point neighborhood sizes.
    pts, _ = make_blobs(
        n=n, n_clusters=8, dim=dim, std=0.5, spread=30.0,
        outlier_fraction=0.05, seed=seed,
    )
    eps = 0.9 * 0.5 * np.sqrt(2.0 * dim)
    return pts, float(eps)


def run_range_sweep(n=20000, ct_divisor=4):
    rows = []
    for dim in SWEEP_DIMS:
        pts, eps = _blob_workload(n, dim)
        for backend in ("brute", "grid", "covertree"):
            n_b = n // ct_divisor if backend == "covertree" else n
            dataset = MetricDataset(pts[:n_b])
            start = time.perf_counter()
            idx = build_index(backend, dataset, radius_hint=eps)
            built = time.perf_counter()
            results = idx.range_query_batch(np.arange(n_b), eps)
            done = time.perf_counter()
            found = int(sum(len(ids) for ids, _ in results))
            rows.append((
                dim, backend, n_b,
                f"{built - start:.3f}", f"{done - built:.3f}",
                f"{idx.n_candidates:,}", f"{found:,}",
            ))
    return rows


def run_clustering_comparison(n=20000, dim=16, backends=("brute", "grid")):
    """End-to-end DBSCAN per backend on one d>=16 workload; returns
    (rows, labels per backend, seconds per backend)."""
    pts, eps = _blob_workload(n, dim)
    rows, labels, seconds, series = [], {}, {}, []
    for backend in backends:
        dataset = MetricDataset(pts)
        start = time.perf_counter()
        result = OriginalDBSCAN(eps, MIN_PTS, index=backend).fit(dataset)
        seconds[backend] = time.perf_counter() - start
        labels[backend] = result.labels
        counters = result.timings.counters
        rows.append((
            backend, f"{seconds[backend]:.3f}",
            f"{result.timings.phases.get('region_queries', 0.0):.3f}",
            f"{counters.get('n_candidates', 0):,}",
            f"{counters.get('distance_evals', 0):,}",
            result.n_clusters, result.n_noise,
        ))
        series.append(series_entry(
            f"dbscan/{backend}", wall=seconds[backend], result=result,
        ))
    return rows, labels, seconds, series


def run_streaming_comparison(n=8000, dim=16, rho=1.0):
    """Streaming solver on the default index and per backend; returns
    (rows, labels per leg)."""
    pts, eps = _blob_workload(n, dim)
    rows, labels, series = [], {}, []
    for leg in ("default", "brute", "grid"):
        dataset = MetricDataset(pts)
        solver = StreamingApproxDBSCAN(
            eps, MIN_PTS, rho=rho, index=None if leg == "default" else leg
        )
        start = time.perf_counter()
        result = solver.fit(dataset)
        seconds = time.perf_counter() - start
        labels[leg] = result.labels
        counters = result.timings.counters
        rows.append((
            leg, result.stats["index_backend"], f"{seconds:.3f}",
            f"{counters.get('n_candidates', 0):,}",
            f"{counters.get('peak_center_matrix_bytes', 0):,}",
            result.stats["n_centers"], result.stats["summary_size"],
        ))
        series.append(series_entry(
            f"streaming/{leg}", wall=seconds, result=result,
        ))
    return rows, labels, series


def _report(sweep_rows, cluster_rows, n, dim, streaming_rows=None,
            series=None, quick=False):
    lines = [
        "Index backends — raw ε-range queries over synthetic blobs",
        "",
    ]
    lines += format_table(
        ["dim", "backend", "n", "build s", "query s", "candidates", "pairs found"],
        sweep_rows,
    )
    lines += [
        "",
        f"Index backends — OriginalDBSCAN end-to-end (n={n}, d={dim}, "
        f"MinPts={MIN_PTS})",
        "",
    ]
    lines += format_table(
        ["backend", "seconds", "region s", "candidates", "cross evals",
         "clusters", "noise"],
        cluster_rows,
    )
    if streaming_rows:
        lines += [
            "",
            "Streaming — process-default index vs forced backends "
            "(labels bit-identical)",
            "",
        ]
        lines += format_table(
            ["leg", "backend", "seconds", "candidates", "peak center B", "|E|",
             "|S*|"],
            streaming_rows,
        )
    write_report("index_backends", lines)
    if series:
        write_bench_artifact(
            "index_backends", series,
            config={"n": n, "dim": dim, "min_pts": MIN_PTS, "quick": quick},
        )


def test_index_backends(benchmark):
    sweep_rows, (cluster_rows, labels, seconds, c_series), \
        (s_rows, s_labels, s_series) = (
        benchmark.pedantic(
            lambda: (
                run_range_sweep(n=4000, ct_divisor=2),
                run_clustering_comparison(n=4000),
                run_streaming_comparison(n=3000),
            ),
            rounds=1,
            iterations=1,
        )
    )
    _report(sweep_rows, cluster_rows, 4000, 16, s_rows,
            series=c_series + s_series)
    assert np.array_equal(labels["brute"], labels["grid"])
    assert np.array_equal(s_labels["default"], s_labels["brute"])
    assert np.array_equal(s_labels["default"], s_labels["grid"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke (no perf assertion)")
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    n = args.n or (3000 if args.quick else 20000)
    dim = 16

    sweep_rows = run_range_sweep(
        n=min(n, 8000), ct_divisor=2 if args.quick else 4
    )
    cluster_rows, labels, seconds, c_series = run_clustering_comparison(
        n=n, dim=dim
    )
    streaming_rows, streaming_labels, s_series = run_streaming_comparison(
        n=min(n, 8000), dim=dim
    )
    _report(sweep_rows, cluster_rows, n, dim, streaming_rows,
            series=c_series + s_series, quick=args.quick)
    if not all(
        np.array_equal(streaming_labels["default"], streaming_labels[leg])
        for leg in ("brute", "grid")
    ):
        print("FAIL: streaming backends disagree with the default index")
        return 1

    identical = np.array_equal(labels["brute"], labels["grid"])
    speedup = seconds["brute"] / seconds["grid"]
    print(f"\nlabels identical: {identical}; "
          f"grid vs brute wall-clock: {speedup:.2f}x "
          f"(n={n}, d={dim})")
    if not identical:
        print("FAIL: backends disagree on clustering output")
        return 1
    if not args.quick and n >= 20000 and speedup <= 1.0:
        print("FAIL: grid backend did not beat brute force wall-clock")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
