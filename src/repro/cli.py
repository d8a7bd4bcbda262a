"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered paper-dataset stand-ins.
``cluster``
    Generate a registered dataset and cluster it with one of the
    paper's algorithms (or the brute-force reference), printing quality
    and run statistics.  ``--json out.json`` additionally dumps the
    machine-readable run record (labels summary, phases, span tree,
    full counter registry) so service-style callers don't scrape text.
``bench-diff``
    Compare two recorder artifacts (``BENCH_<name>.json``) with
    per-metric tolerance bands; exits nonzero on regressions (see
    :mod:`repro.obs.diff`).

Examples
--------
::

    python -m repro datasets
    python -m repro cluster --dataset moons --algo exact --eps 0.12
    python -m repro cluster --dataset ag_news --algo approx --eps 9 --rho 0.5
    python -m repro cluster --dataset glove25 --algo streaming --eps 3 --size 2000
    python -m repro cluster --dataset moons --algo approx --json run.json
    python -m repro bench-diff baselines/BENCH_fig3.json results/BENCH_fig3.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.baselines import OriginalDBSCAN
from repro.core import ApproxMetricDBSCAN, MetricDBSCAN, StreamingApproxDBSCAN
from repro.datasets import REGISTRY, load_dataset
from repro.evaluation import adjusted_mutual_information, adjusted_rand_index
from repro.index import available_backends

ALGORITHMS = ("exact", "approx", "streaming", "dbscan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Metric DBSCAN (SIGMOD 2024) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered dataset stand-ins")

    cluster = sub.add_parser("cluster", help="cluster a registered dataset")
    cluster.add_argument("--dataset", required=True, choices=sorted(REGISTRY))
    cluster.add_argument("--algo", default="exact", choices=ALGORITHMS)
    cluster.add_argument("--eps", type=float, default=None,
                         help="DBSCAN radius (default: midpoint of the "
                              "dataset's suggested range)")
    cluster.add_argument("--min-pts", type=int, default=10)
    cluster.add_argument("--rho", type=float, default=0.5,
                         help="approximation parameter for approx/streaming")
    cluster.add_argument("--size", type=int, default=None,
                         help="stand-in size (default: registry default)")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--index", default=None, choices=available_backends(),
                         help="neighbor-index backend; when omitted, every "
                              "algorithm uses the process default "
                              "(REPRO_DEFAULT_INDEX env var, else auto); "
                              "'--algo dbscan --index brute' is the paper's "
                              "Theta(n^2) reference.  Streaming builds it "
                              "over its center, watch and summary stores")
    cluster.add_argument("--json", dest="json_out", default=None,
                         metavar="PATH",
                         help="also write the machine-readable run record "
                              "(labels summary, phases, trace, counter "
                              "registry) to PATH ('-' for stdout)")

    from repro.obs import diff as obs_diff

    bench_diff = sub.add_parser(
        "bench-diff",
        help="diff two BENCH_*.json artifacts with tolerance bands",
    )
    obs_diff.configure_parser(bench_diff)
    return parser


def cmd_datasets() -> int:
    width = max(len(name) for name in REGISTRY)
    print(f"{'name':<{width}}  {'category':<9} {'paper n':>12}  note")
    for name, spec in REGISTRY.items():
        print(f"{name:<{width}}  {spec.category:<9} {spec.paper_n:>12,}  "
              f"{spec.note or '-'}")
    return 0


def _write_run_record(args, eps, loaded, result, ari, ami) -> None:
    """Dump the machine-readable run record for ``--json``."""
    import numpy as np

    from repro.obs import recorder

    labels = result.labels
    values, counts = np.unique(labels[labels >= 0], return_counts=True)
    record = {
        "schema_version": recorder.SCHEMA_VERSION,
        "kind": "run",
        "env": recorder.environment_info(),
        "dataset": {
            "name": args.dataset,
            "n": int(loaded.dataset.n),
            "category": loaded.category,
        },
        "algorithm": {
            "name": args.algo,
            "eps": float(eps),
            "min_pts": int(args.min_pts),
            "rho": float(args.rho),
            "index": args.index,
            "seed": int(args.seed),
        },
        "labels": {
            "n": int(labels.size),
            "n_clusters": int(result.n_clusters),
            "n_noise": int(result.n_noise),
            "cluster_sizes": {
                str(int(v)): int(c) for v, c in zip(values, counts)
            },
        },
        "quality": {"ari": float(ari), "ami": float(ami)},
        "wall": float(result.timings.total),
        "phases": {k: float(v) for k, v in result.timings.phases.items()},
        "trace": result.timings.trace.as_dict(),
        "counters": {k: int(v) for k, v in result.timings.counters.items()},
        "counter_registry": result.timings.counter_registry(),
        "stats": {
            k: v
            for k, v in result.stats.items()
            if isinstance(v, (str, int, float, bool, type(None)))
        },
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.json_out == "-":
        print(text)
    else:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")


def cmd_cluster(args: argparse.Namespace) -> int:
    loaded = load_dataset(args.dataset, size=args.size, seed=args.seed)
    eps = args.eps
    if eps is None:
        lo, hi = loaded.eps_range
        eps = (lo + hi) / 2.0
        print(f"(using eps={eps:g} from the dataset's suggested range)")
    solvers = {
        "exact": lambda: MetricDBSCAN(eps, args.min_pts, index=args.index),
        "approx": lambda: ApproxMetricDBSCAN(
            eps, args.min_pts, rho=args.rho, index=args.index
        ),
        "streaming": lambda: StreamingApproxDBSCAN(
            eps, args.min_pts, rho=args.rho, metric=loaded.dataset.metric,
            index=args.index,
        ),
        "dbscan": lambda: OriginalDBSCAN(eps, args.min_pts, index=args.index),
    }
    result = solvers[args.algo]().fit(loaded.dataset)
    ari = adjusted_rand_index(loaded.labels, result.labels)
    ami = adjusted_mutual_information(loaded.labels, result.labels)
    if args.json_out:
        _write_run_record(args, eps, loaded, result, ari, ami)
    print(f"dataset   : {args.dataset} (n={loaded.dataset.n}, "
          f"category={loaded.category})")
    print(f"algorithm : {args.algo} (eps={eps:g}, MinPts={args.min_pts}"
          + (f", rho={args.rho:g}" if args.algo in ("approx", "streaming") else "")
          + ")")
    print(f"result    : {result.summary()}")
    print(f"ARI       : {ari:.3f}")
    print(f"AMI       : {ami:.3f}")
    if result.timings.phases:
        print("phases    :")
        for phase, seconds in result.timings.phases.items():
            print(f"  {phase:<18} {seconds:8.3f}s "
                  f"({result.timings.fraction(phase):5.1%})")
    interesting = ("n_centers", "summary_size", "memory_points", "memory_ratio",
                   "index_backend")
    extras = {k: v for k, v in result.stats.items() if k in interesting}
    peak = result.timings.counters.get("peak_center_matrix_bytes")
    if peak is not None:
        extras["peak_center_matrix_bytes"] = peak
    if extras:
        print(f"stats     : {extras}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "cluster":
        return cmd_cluster(args)
    if args.command == "bench-diff":
        from repro.obs import diff as obs_diff

        return obs_diff.run(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
