"""Table 4: streaming-algorithm quality comparison.

Our 3-pass streaming ρ-approximate DBSCAN (ρ = 0.5, as in the paper)
against DBStream, D-Stream, evoStream, and BICO, on batch stand-ins and
on the drifting session stream split into the paper's 1% / 10% / 50% /
100% prefixes.  Expected shape: our algorithm leads on most instances;
the grid/micro-cluster baselines degrade with dimension; BICO holds up
where clusters are spherical and k is known.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _p in (str(_HERE), str(_HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)


from repro import MetricDataset, StreamingApproxDBSCAN
from repro.baselines import BICO, DBStream, DStream, EvoStream
from repro.datasets import (
    load_dataset,
    make_blobs,
    make_session_stream,
    prefix_split,
)
from repro.evaluation import adjusted_mutual_information, adjusted_rand_index
from repro.obs.recorder import series_entry

from common import format_table, timed, write_bench_artifact, write_report

MIN_PTS = 10
RHO = 0.5


def build_workloads(quick=False):
    workloads = {}
    batch = [
        ("moons", 900, 0.12),
        ("cancer", 500, 5.5),
        ("mnist", 600, 3.0),
        ("usps_hw", 600, 3.0),
    ]
    if quick:
        batch = [("moons", 400, 0.12), ("cancer", 300, 5.5)]
    for name, size, eps in batch:
        loaded = load_dataset(name, size=size, seed=0)
        workloads[name] = (loaded.dataset, loaded.labels, eps)
    stream_pts, stream_labels = make_session_stream(
        n=1500 if quick else 4000, dim=8, n_clusters=4, drift=2.0,
        outlier_fraction=0.01, seed=0,
    )
    fractions = (0.10, 1.00) if quick else (0.01, 0.10, 0.50, 1.00)
    for fraction in fractions:
        pts, labels = prefix_split(stream_pts, stream_labels, fraction)
        workloads[f"sessions {fraction:.0%}"] = (MetricDataset(pts), labels, 2.5)
    return workloads


def algorithms(eps, k_truth):
    return {
        "Ours(stream)": lambda: StreamingApproxDBSCAN(eps, MIN_PTS, rho=RHO),
        "DBStream": lambda: DBStream(radius=max(eps / 2.0, 1e-3), w_min=2.0),
        "D-Stream": lambda: DStream(cell_size=max(eps / 2.0, 1e-3), c_m=2.0, c_l=0.5),
        "evoStream": lambda: EvoStream(
            n_clusters=k_truth, radius=max(eps / 2.0, 1e-3),
            generations=150, seed=0,
        ),
        "BICO": lambda: BICO(n_clusters=k_truth, coreset_size=100, seed=0),
    }


def run_comparison(quick=False):
    workloads = build_workloads(quick=quick)
    rows = []
    scores = {}
    series = []
    for ds_name, (dataset, truth, eps) in workloads.items():
        k_truth = max(1, int(len(set(int(v) for v in truth if v >= 0))))
        for algo_name, factory in algorithms(eps, k_truth).items():
            result, seconds = timed(lambda: factory().fit(dataset))
            ari = adjusted_rand_index(truth, result.labels)
            ami = adjusted_mutual_information(truth, result.labels)
            scores[(ds_name, algo_name)] = (ari, ami)
            rows.append((
                ds_name, algo_name, f"{ari:.3f}", f"{ami:.3f}",
                result.stats.get("memory_points", "-"),
            ))
            series.append(series_entry(
                f"{ds_name}/{algo_name}", wall=seconds, result=result,
                ari=float(ari), ami=float(ami),
            ))
    return rows, scores, series


def run_throughput(quick=False):
    """Sustained-throughput leg: points/sec of the streaming solver on
    one blob stream, on the brute and grid backends.

    Each backend is pinned by name, so the counters are the same on
    every CI matrix leg (the ``REPRO_DEFAULT_INDEX`` preference only
    steers ``index=None``).  Both produce bit-identical labels, so the
    series differ only in wall time and in the index's work counters.

    The workload is a blob stream whose center count stays well below
    the arrival count, where the grid prunes most candidates.
    """
    n = 4000 if quick else 20000
    pts, _ = make_blobs(
        n=n, n_clusters=4, dim=2, std=0.35, spread=9.0,
        outlier_fraction=0.02, seed=0,
    )
    dataset = MetricDataset(pts)
    eps = 1.0
    rows, series = [], []
    for mode in ("brute", "grid"):
        solver = StreamingApproxDBSCAN(eps, MIN_PTS, rho=RHO, index=mode)
        result, seconds = timed(lambda: solver.fit(dataset))
        phases = result.timings.phases
        hot = phases.get("pass1_build_net", 0.0) + phases.get("pass3_label", 0.0)
        rows.append((
            f"blobs n={n}", f"index={mode}",
            f"{n / seconds:,.0f}", f"{seconds:.2f}", f"{hot:.2f}",
        ))
        series.append(series_entry(
            f"throughput/{mode}", wall=seconds, result=result,
            throughput=n / seconds, n=n,
        ))
    return rows, series


def write_table4_report(rows, series=None, quick=False, throughput_rows=None):
    lines = [
        f"Table 4 — streaming algorithms, ARI/AMI (rho={RHO}, MinPts={MIN_PTS})",
        "",
    ]
    lines += format_table(
        ["dataset", "algorithm", "ARI", "AMI", "memory (points)"], rows
    )
    if throughput_rows:
        lines += [
            "",
            "Sustained ingestion throughput (brute vs grid index; "
            "identical labels)",
            "",
        ]
        lines += format_table(
            ["stream", "mode", "points/sec", "wall (s)", "pass1+pass3 (s)"],
            throughput_rows,
        )
    write_report("table4_streaming", lines)
    if series:
        write_bench_artifact(
            "table4_streaming", series,
            config={"rho": RHO, "min_pts": MIN_PTS, "quick": quick},
        )


def test_table4_streaming_comparison(benchmark):
    rows, scores, series = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    t_rows, t_series = run_throughput(quick=True)
    write_table4_report(rows, series + t_series, throughput_rows=t_rows)
    # Shape check: on most workloads our streaming solver is at least as
    # good as every baseline (paper: best on most test instances).
    workload_names = {r[0] for r in rows}
    wins = 0
    for ds_name in workload_names:
        ours = scores[(ds_name, "Ours(stream)")][0]
        if all(
            ours >= scores[(ds_name, other)][0] - 0.05
            for other in ("DBStream", "D-Stream", "evoStream", "BICO")
        ):
            wins += 1
    assert wins >= len(workload_names) // 2


def main(argv=None):
    """CLI entry point; ``--quick`` runs two batch stand-ins and two
    stream prefixes so CI can emit ``BENCH_table4_streaming.json``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    rows, scores, series = run_comparison(quick=args.quick)
    t_rows, t_series = run_throughput(quick=args.quick)
    write_table4_report(
        rows, series + t_series, quick=args.quick, throughput_rows=t_rows
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
