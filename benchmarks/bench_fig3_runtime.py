"""Figure 3: running time with varying ε, all DBSCAN algorithms.

One representative stand-in per dataset class (the four rows of the
paper's Figure 3): low-dimensional (moons), high-dimensional manifold
(mnist), text under edit distance (ag_news), and the scaled-down
million-class (glove25).  For each, ε sweeps over three values with
``MinPts = 10`` and ``ρ = 0.5`` fixed, exactly as in Section 5.2.

Two outputs:

- the wall-clock series per dataset (the Figure-3 curves), plus
  distance-evaluation counts — the machine-independent complexity
  measure;
- a size sweep on moons showing our solvers scale near-linearly in n
  while brute-force DBSCAN scales quadratically (the reason only the
  paper's algorithms finish on GIST/DEEP1B).

Euclidean-only baselines (GT, and DBSCAN++'s centroid-free variant
works anywhere, DYW is metric-generic) are skipped on the text dataset,
mirroring the paper's missing curves.
"""

import sys
from pathlib import Path

# Allow direct invocation (python benchmarks/bench_fig3_runtime.py) in
# addition to `pytest benchmarks`, where conftest.py sets the path up.
_HERE = Path(__file__).resolve().parent
for _p in (str(_HERE), str(_HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from repro import ApproxMetricDBSCAN, MetricDBSCAN, MetricDataset
from repro.baselines import DBSCANPlusPlus, DYWDBSCAN, GanTaoDBSCAN, OriginalDBSCAN
from repro.datasets import load_dataset, make_moons
from repro.metricspace import EuclideanMetric

from repro.obs.recorder import series_entry

from common import format_counter, format_table, timed, write_bench_artifact, write_report

MIN_PTS = 10
RHO = 0.5

DATASETS = {
    "moons": dict(size=1200, eps_values=(0.08, 0.12, 0.2)),
    "mnist": dict(size=800, eps_values=(2.5, 3.0, 4.0)),
    "ag_news": dict(size=260, eps_values=(7.0, 9.0, 11.0)),
    "glove25": dict(size=1200, eps_values=(2.0, 3.0, 4.0)),
}


def algorithms_for(dataset):
    euclidean = isinstance(dataset.metric, EuclideanMetric)
    algos = {
        "Our_Exact": lambda eps: MetricDBSCAN(eps, MIN_PTS),
        "Our_Approx": lambda eps: ApproxMetricDBSCAN(eps, MIN_PTS, rho=RHO),
        "DBSCAN": lambda eps: OriginalDBSCAN(eps, MIN_PTS, index="brute"),
        "DBSCAN++": lambda eps: DBSCANPlusPlus(eps, MIN_PTS, ratio=0.3, seed=0),
        "DYW_DBSCAN": lambda eps: DYWDBSCAN(eps, MIN_PTS, z_tilde=20, seed=0),
    }
    if euclidean:
        algos["GT_Exact"] = lambda eps: GanTaoDBSCAN(eps, MIN_PTS)
        algos["GT_Approx"] = lambda eps: GanTaoDBSCAN(eps, MIN_PTS, rho=RHO)
    return algos


def run_sweep(name):
    cfg = DATASETS[name]
    loaded = load_dataset(name, size=cfg["size"], seed=0)
    rows = []
    series = []
    for eps in cfg["eps_values"]:
        for algo_name, factory in algorithms_for(loaded.dataset).items():
            counted = MetricDataset(
                loaded.dataset.points, loaded.dataset.metric
            ).with_counting()
            result, seconds = timed(lambda: factory(eps).fit(counted))
            counters = result.timings.counters
            rows.append((
                f"{eps:g}", algo_name, f"{seconds:.3f}",
                f"{counted.metric.count:,}",
                f"{counted.n_cross_blocks:,}",
                format_counter(counters, "n_range_queries"),
                format_counter(counters, "n_candidates"),
                result.n_clusters, result.n_noise,
            ))
            series.append(series_entry(
                f"eps={eps:g}/{algo_name}", wall=seconds, result=result,
                metric_evals=int(counted.metric.count),
            ))
    return loaded, rows, series


SWEEP_COLUMNS = [
    "eps", "algorithm", "seconds", "distance evals", "kernel blocks",
    "range queries", "candidates",
    "clusters", "noise",
]


def write_sweep_report(name, loaded, rows, series=None, quick=False):
    lines = [
        f"Figure 3 ({name}) — running time vs eps "
        f"(n={loaded.dataset.n}, MinPts={MIN_PTS}, rho={RHO})",
        "",
    ]
    lines += format_table(SWEEP_COLUMNS, rows)
    write_report(f"fig3_runtime_{name}", lines)
    if series:
        write_bench_artifact(
            f"fig3_{name}", series,
            config={"dataset": name, "n": loaded.dataset.n,
                    "min_pts": MIN_PTS, "rho": RHO, "quick": quick},
        )


@pytest.mark.parametrize("name", list(DATASETS))
def test_fig3_eps_sweep(benchmark, name):
    loaded, rows, series = benchmark.pedantic(
        lambda: run_sweep(name), rounds=1, iterations=1
    )
    write_sweep_report(name, loaded, rows, series)
    assert rows


def scaling_sweep():
    rows = []
    for n in (300, 600, 1200, 2400):
        pts, _ = make_moons(n=n, noise=0.06, outlier_fraction=0.02, seed=1)
        for algo_name, factory in [
            ("Our_Exact", lambda: MetricDBSCAN(0.12, MIN_PTS)),
            ("Our_Approx", lambda: ApproxMetricDBSCAN(0.12, MIN_PTS, rho=RHO)),
            ("DBSCAN", lambda: OriginalDBSCAN(0.12, MIN_PTS, index="brute")),
        ]:
            counted = MetricDataset(pts).with_counting()
            _, seconds = timed(lambda: factory().fit(counted))
            rows.append((n, algo_name, f"{seconds:.3f}", f"{counted.metric.count:,}"))
    return rows


def test_fig3_size_scaling(benchmark):
    rows = benchmark.pedantic(scaling_sweep, rounds=1, iterations=1)
    lines = [
        "Figure 3 (size sweep) — distance-evaluation growth with n "
        "(moons, eps=0.12, MinPts=10)",
        "",
    ]
    lines += format_table(["n", "algorithm", "seconds", "distance evals"], rows)
    # Shape check: brute force grows ~quadratically, ours near-linearly.
    evals = {
        (n, a): int(e.replace(",", ""))
        for n, a, _, e in rows
    }
    ours_growth = evals[(2400, "Our_Exact")] / evals[(300, "Our_Exact")]
    brute_growth = evals[(2400, "DBSCAN")] / evals[(300, "DBSCAN")]
    lines += [
        "",
        f"growth 300 -> 2400 (8x n): Our_Exact {ours_growth:.1f}x, "
        f"DBSCAN {brute_growth:.1f}x (quadratic would be 64x)",
    ]
    write_report("fig3_runtime_scaling", lines)
    assert ours_growth < brute_growth


def main(argv=None):
    """CLI entry point so CI can smoke the harness without pytest.

    ``--quick`` shrinks every dataset and sweeps a single ε so the run
    finishes in seconds; any harness rot (import errors, API drift,
    report formatting) still surfaces.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--dataset", choices=sorted(DATASETS), action="append",
        help="dataset(s) to sweep; default: moons (quick) or all",
    )
    args = parser.parse_args(argv)
    names = args.dataset or (["moons"] if args.quick else sorted(DATASETS))
    if args.quick:
        for cfg in DATASETS.values():
            cfg["size"] = min(cfg["size"], 300)
            cfg["eps_values"] = cfg["eps_values"][:1]
    for name in names:
        loaded, rows, series = run_sweep(name)
        write_sweep_report(name, loaded, rows, series, quick=args.quick)
    return 0


@pytest.mark.parametrize(
    "algo",
    ["our_exact", "our_approx", "dbscan"],
)
def test_fig3_moons_timing(benchmark, algo):
    """Steady-state pytest-benchmark timings for the headline solvers."""
    pts, _ = make_moons(n=600, noise=0.06, outlier_fraction=0.02, seed=2)
    ds = MetricDataset(pts)
    factories = {
        "our_exact": lambda: MetricDBSCAN(0.12, MIN_PTS).fit(ds),
        "our_approx": lambda: ApproxMetricDBSCAN(0.12, MIN_PTS, rho=RHO).fit(ds),
        "dbscan": lambda: OriginalDBSCAN(0.12, MIN_PTS, index="brute").fit(ds),
    }
    result = benchmark(factories[algo])
    assert result.n_clusters >= 1


if __name__ == "__main__":
    raise SystemExit(main())
