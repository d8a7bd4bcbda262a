"""Figure 6: memory usage of the streaming algorithm.

The paper plots the ratio ``(|E| + |M|) / n`` for ρ ∈ {0.5, 1, 2} over
a range of ε per dataset.  Expected shape: the ratio falls sharply as
either ε or ρ grows (coarser nets), and is far below 1 at the
operating points used in Table 4 (the paper's green diamonds).
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _p in (str(_HERE), str(_HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from repro import StreamingApproxDBSCAN
from repro.datasets import load_dataset
from repro.evaluation import adjusted_rand_index
from repro.obs.recorder import series_entry

from common import format_counter, format_table, timed, write_bench_artifact, write_report

MIN_PTS = 10
RHOS = (0.5, 1.0, 2.0)
CONFIG = {
    "moons": dict(size=1500, eps_values=(0.08, 0.12, 0.2, 0.3)),
    "fashion_mnist": dict(size=800, eps_values=(2.0, 3.0, 4.0, 5.0)),
    "glove25": dict(size=1500, eps_values=(1.5, 2.5, 3.5, 4.5)),
}


def run_dataset(name, cfg=None):
    cfg = cfg or CONFIG[name]
    loaded = load_dataset(name, size=cfg["size"], seed=0)
    rows = []
    series = []
    ratios = {}
    for rho in RHOS:
        for eps in cfg["eps_values"]:
            evals0 = loaded.dataset.n_cross_evals
            # An explicit index="auto" keeps the counters the same on
            # every CI matrix leg; the peak_center_matrix_bytes counter
            # reports the largest center/summary pair structure the run
            # ever held.
            result, seconds = timed(lambda: StreamingApproxDBSCAN(
                eps, MIN_PTS, rho=rho, index="auto"
            ).fit(loaded.dataset))
            ratio = result.stats["memory_ratio"]
            ratios[(rho, eps)] = ratio
            counters = result.timings.counters
            rows.append((
                f"{rho:g}", f"{eps:g}",
                result.stats["n_centers"], result.stats["watch_size"],
                f"{ratio:.3f}",
                f"{loaded.dataset.n_cross_evals - evals0:,}",
                format_counter(counters, "n_range_queries"),
                format_counter(counters, "n_candidates"),
                format_counter(counters, "peak_center_matrix_bytes"),
                f"{adjusted_rand_index(loaded.labels, result.labels):.3f}",
            ))
            series.append(series_entry(
                f"rho={rho:g}/eps={eps:g}", wall=seconds, result=result,
                memory_ratio=float(ratio),
                n_centers=int(result.stats["n_centers"]),
            ))
    return loaded, rows, ratios, cfg, series


def write_fig6_report(name, loaded, rows, series=None, quick=False):
    lines = [
        f"Figure 6 ({name}) — streaming memory ratio (|E|+|M|)/n "
        f"(n={loaded.dataset.n}, MinPts={MIN_PTS})",
        "",
    ]
    lines += format_table(
        ["rho", "eps", "|E|", "|M|", "(|E|+|M|)/n",
         "cross evals", "range queries", "candidates",
         "peak center B", "ARI"], rows
    )
    write_report(f"fig6_memory_{name}", lines)
    if series:
        write_bench_artifact(
            f"fig6_{name}", series,
            config={"dataset": name, "n": loaded.dataset.n,
                    "min_pts": MIN_PTS, "quick": quick},
        )


@pytest.mark.parametrize("name", list(CONFIG))
def test_fig6_memory_ratio(benchmark, name):
    loaded, rows, ratios, cfg, series = benchmark.pedantic(
        lambda: run_dataset(name), rounds=1, iterations=1
    )
    write_fig6_report(name, loaded, rows, series)
    eps_values = cfg["eps_values"]
    # Shape checks: ratio decreases with eps (per rho) and with rho (per eps).
    for rho in RHOS:
        assert ratios[(rho, eps_values[-1])] <= ratios[(rho, eps_values[0])]
    for eps in eps_values:
        assert ratios[(2.0, eps)] <= ratios[(0.5, eps)] + 1e-9
    # The largest operating point keeps only a small fraction in memory.
    assert ratios[(2.0, eps_values[-1])] < 0.3


def main(argv=None):
    """CLI entry point; ``--quick`` shrinks sizes and sweeps fewer ε
    so CI can emit the ``BENCH_fig6_*.json`` artifacts in seconds."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--dataset", choices=sorted(CONFIG), action="append",
        help="dataset(s) to run; default: moons (quick) or all",
    )
    args = parser.parse_args(argv)
    names = args.dataset or (["moons"] if args.quick else sorted(CONFIG))
    for name in names:
        cfg = dict(CONFIG[name])
        if args.quick:
            cfg["size"] = min(cfg["size"], 400)
            cfg["eps_values"] = cfg["eps_values"][:2]
        loaded, rows, ratios, cfg, series = run_dataset(name, cfg=cfg)
        write_fig6_report(name, loaded, rows, series, quick=args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
