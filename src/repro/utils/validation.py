"""Parameter validation shared by the solvers and baselines.

Centralizing these checks keeps error messages uniform and the solver
bodies free of boilerplate.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def check_epsilon(epsilon: float) -> float:
    """Validate the DBSCAN radius parameter ``ε > 0``."""
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    return eps


def check_min_pts(min_pts: int) -> int:
    """Validate the DBSCAN density threshold ``MinPts >= 1``."""
    if int(min_pts) != min_pts:
        raise ValueError(f"min_pts must be an integer, got {min_pts!r}")
    value = int(min_pts)
    if value < 1:
        raise ValueError(f"min_pts must be >= 1, got {value}")
    return value


def check_rho(rho: float) -> float:
    """Validate the approximation parameter ``ρ > 0``.

    The paper analyzes ``ρ <= 2`` (Theorem 3) but notes the analysis
    extends beyond; we therefore accept any positive ρ and let callers
    warn if they rely on the ``ρ <= 2`` memory bound.
    """
    value = float(rho)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"rho must be a positive finite number, got {rho!r}")
    return value


def check_finite(values, what: str, metric) -> None:
    """Reject NaN, ±inf and too-large entries with a ``ValueError``.

    The solvers' distance thresholds and net radii are meaningless for
    non-finite coordinates (an infinite point is never covered, so the
    net never stops growing), and for coordinates whose reduced
    distances overflow float64 (every pair then compares as
    ``inf <= inf``).  One ``max|x|`` pass screens both: ``2·d·max|x|``
    bounds every Lp distance between two rows and every term of a norm
    expansion, so the input is accepted only when ``metric`` reduces
    that bound to a finite value.  Vector inputs are checked at the
    dataset and stream-ingestion boundaries.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return
    top = float(np.abs(arr).max())  # NaN propagates through the max
    if not math.isfinite(top):
        raise ValueError(f"{what} must be finite; found NaN or infinity")
    dim = arr.shape[-1] if arr.ndim else 1
    if not math.isfinite(metric.reduce_threshold(2.0 * dim * top)):
        raise ValueError(
            f"{what} magnitude {top:.3g} is too large: distances under "
            f"{type(metric).__name__} would overflow float64"
        )


def ensure_labels_array(labels: Sequence[int], n: int | None = None) -> np.ndarray:
    """Coerce a label sequence into an ``int64`` numpy array.

    Parameters
    ----------
    labels:
        Cluster labels; noise is ``-1``.
    n:
        If given, assert the label vector has exactly this length.
    """
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected {n} labels, got {arr.shape[0]}")
    return arr
