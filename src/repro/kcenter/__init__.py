"""k-center clustering (the foundation of Section 2).

The paper's radius-guided Gonzalez (Algorithm 1, in
:mod:`repro.core.gonzalez`) is a variant of classical k-center
machinery.  This subpackage holds the classical form,
:func:`gonzalez_kcenter` — the 2-approximation with ``k`` given and
the radius minimized — which the DBSCAN++ k-center sample and the
DP-means λ heuristic both run.
"""

from repro.kcenter.gonzalez import KCenterResult, gonzalez_kcenter

__all__ = [
    "gonzalez_kcenter",
    "KCenterResult",
]
