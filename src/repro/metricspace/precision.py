"""Mixed-precision cascade policy and error-bound machinery.

The batched engine's hot blocks are threshold tests: ``dis(q, t) <= ε``
over a ``(nq, nt)`` block, consumed as a boolean mask (core counting,
merge edges, range queries with ``with_distances=False``).  For those
consumers the float64 distance values are throwaway intermediates, and
the dominant cost — the ``X @ Y.T`` GEMM of the squared-norm expansion —
runs at half the SIMD width and twice the memory traffic it needs to.

The cascade computes the block once in **float32** (one sgemm plus norm
accumulation), then *certifies* each pass/fail decision with a rigorous
forward rounding-error bound: a pair whose float32 value sits further
than the bound from the threshold provably receives the same decision
as an exact computation; the remaining "uncertain band" pairs — a tiny
fraction on real data — are rescued with a float64 recomputation.  The
certified mask therefore always equals the exact predicate (up to the
float64 kernels' own last-ulp behaviour, nine orders of magnitude finer
than the float32 band).

Error bound
-----------
For the Euclidean gram expansion ``||x-y||² = ||x||² + ||y||² - 2 x·y``
evaluated in float32 (inputs cast from float64, dot products by sgemm),
the classic ``γ_k`` forward-error analysis (Higham, *Accuracy and
Stability of Numerical Algorithms*, §3.1) bounds the absolute error of
every intermediate by a small multiple of ``γ₃₂(d) · M`` where
``γ₃₂(k) = k·u / (1 - k·u)``, ``u = 2⁻²⁴`` is the float32 unit
roundoff, and ``M`` majorizes every operand magnitude:
``M = ||x||² + ||y||²`` dominates ``2|x·y|`` by AM-GM.  The input casts
add one ``u`` of relative error per coordinate (folded into the ``+ 8``
slack on ``k``), the comparison threshold's own cast adds ``u·t``, and
:data:`SAFETY` covers the remaining constant factors with room to
spare.  The per-pair band half-width is therefore::

    B(i, j) = SAFETY · γ₃₂(d + 8) · (||xᵢ||² + ||yⱼ||² + t)

For the angular metric the rows are unit-normalized in float64 before
the cast, so every operand is bounded by 1 (Cauchy–Schwarz) and the
band collapses to the constant ``SAFETY · γ₃₂(d + 8)``.

The float64 kernels that *return* distances obey the same analysis with
``γ₆₄``: the gram expansion's dot product, both norms and the two
additions are each within ``γ₆₄(d + 2)`` of their operands'
magnitudes, so every float64 squared distance is within::

    B₆₄(x, y) = SAFETY · γ₆₄(d + 2) · 2 (||x||² + ||y||²)

of the exact one.  The difference kernel's error, ``γ₆₄(d + 2)·||x-y||²``,
lies inside the same band, since ``||x-y||² <= 2 (||x||² + ||y||²)``.
The exact solver's center graph widens its float64 decisions by it
(:func:`repro.index.netgraph.center_neighbor_sets`).

Knobs
-----
The ``REPRO_PRECISION`` environment variable (read per call, so tests
can flip it) selects the policy:

- ``cascade`` (default): float32 for blocks of at least
  :data:`CASCADE_MIN_ELEMENTS` entries — smaller blocks are
  overhead-dominated and stay float64;
- ``float64``: pure float64 everywhere (the pre-cascade engine);
- ``float32``: force the cascade regardless of block size (tests use
  this to exercise the band machinery on small constructed blocks).

:func:`set_precision` overrides the environment for the process (the
benches pin legs explicitly); :data:`stats` counts certified vs rescued
pairs so benches can report the rescue-pass fraction.
"""

from __future__ import annotations

import os
from typing import Optional

#: float32 unit roundoff.
F32_EPS = 2.0 ** -24

#: float64 unit roundoff.
F64_EPS = 2.0 ** -53

#: Constant-factor safety margin on the γ-bound.  The analysis needs
#: barely more than 1; 4 keeps the certificate unimpeachable while the
#: band stays ~1e-5 relative — far below any rescue-cost concern.
SAFETY = 4.0

#: Blocks below this many entries skip the cascade under the default
#: policy: the float32 copies and the extra mask don't amortize.
CASCADE_MIN_ELEMENTS = 8192

#: Operand-magnitude ceiling for the float32 path.  Squared norms (or
#: the threshold) beyond this risk overflow/extreme cancellation in
#: float32; such blocks fall back to pure float64.
F32_SAFE_MAX = 1e30

#: Relative slack applied to triangle-inequality pruning radii so a
#: float rounding wobble can only *add* candidates, never drop one.
PRUNE_SLACK = 1.0 + 1e-12

#: Dense-band escape: when more than this fraction of a block lands in
#: the uncertainty band (tight thresholds on far-from-origin data — the
#: 2r̄ refinement queries are the canonical case), the per-pair COO
#: rescue would cost more than recomputing the whole block, so the
#: rescue is one float64 block kernel instead.  Decisions are
#: identical either way; only the rescue vehicle changes.
RESCUE_DENSE_FRAC = 0.125

_VALID_MODES = ("cascade", "float64", "float32")

#: Process-level override installed by :func:`set_precision`; ``None``
#: defers to the environment.
_override: Optional[str] = None


def gamma32(k: int) -> float:
    """Higham's ``γ_k`` for float32: ``k·u / (1 - k·u)``."""
    ku = k * F32_EPS
    if ku >= 1.0:
        raise ValueError(f"gamma32 undefined for k={k} (k*u >= 1)")
    return ku / (1.0 - ku)


def band_halfwidth_factor(dim: int) -> float:
    """The dimension-keyed factor ``SAFETY · γ₃₂(d + 8)`` of the band
    bound; multiply by ``(||x||² + ||y||² + t)`` per pair (Euclidean)
    or use directly (unit-sphere operands)."""
    return SAFETY * gamma32(int(dim) + 8)


def gamma64(k: int) -> float:
    """Higham's ``γ_k`` for float64: ``k·u / (1 - k·u)``."""
    ku = k * F64_EPS
    return ku / (1.0 - ku)


def band64_factor(dim: int) -> float:
    """The factor ``SAFETY · γ₆₄(d + 2) · 2`` of the float64 band
    ``B₆₄``; multiply by ``(||x||² + ||y||²)`` per pair."""
    return SAFETY * gamma64(int(dim) + 2) * 2.0


def set_precision(mode: Optional[str]) -> None:
    """Install a process-level precision override (``None`` clears it,
    deferring back to ``REPRO_PRECISION``)."""
    global _override
    if mode is not None:
        mode = mode.strip().lower()
        if mode not in _VALID_MODES:
            raise ValueError(
                f"unknown precision mode {mode!r}; expected one of {_VALID_MODES}"
            )
    _override = mode


def precision_mode() -> str:
    """The active precision policy: the :func:`set_precision` override
    if installed, else ``REPRO_PRECISION``, else ``cascade``."""
    if _override is not None:
        return _override
    mode = os.environ.get("REPRO_PRECISION", "cascade").strip().lower()
    if mode not in _VALID_MODES:
        raise ValueError(
            f"REPRO_PRECISION={mode!r} is not one of {_VALID_MODES}"
        )
    return mode


def cascade_engaged(n_elements: int) -> bool:
    """Whether the cascade applies to a block of ``n_elements`` entries
    under the active policy."""
    mode = precision_mode()
    if mode == "float64" or n_elements == 0:
        return False
    if mode == "float32":
        return True
    return n_elements >= CASCADE_MIN_ELEMENTS


class CascadeStats:
    """Process-wide cascade instrumentation.

    ``n_certified`` counts pairs decided by the float32 value alone;
    ``n_rescued`` counts band pairs recomputed in float64.  The benches
    reset before a leg and read :meth:`rescue_fraction` after.
    """

    __slots__ = ("n_certified", "n_rescued", "n_f32_blocks", "n_f64_blocks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.n_certified = 0
        self.n_rescued = 0
        self.n_f32_blocks = 0
        self.n_f64_blocks = 0

    def rescue_fraction(self) -> float:
        total = self.n_certified + self.n_rescued
        return self.n_rescued / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "n_certified": int(self.n_certified),
            "n_rescued": int(self.n_rescued),
            "n_f32_blocks": int(self.n_f32_blocks),
            "n_f64_blocks": int(self.n_f64_blocks),
            "rescue_fraction": self.rescue_fraction(),
        }


#: The singleton every cascade kernel reports into.
stats = CascadeStats()
