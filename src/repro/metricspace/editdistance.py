"""Levenshtein edit distance over strings.

This is the metric the paper uses for its four text datasets (AG News,
COLA, MNLI, MRPC).  Unit-cost insertions, deletions and substitutions
make Levenshtein a true metric, so every guarantee in the paper applies.

Three kernels, fastest applicable wins:

- **bit-parallel Myers (batched)** — for query strings up to 64
  characters, :meth:`EditDistanceMetric.distance_many` runs Myers's
  1999 bit-vector algorithm vectorized over the whole target batch
  with numpy ``uint64`` state words: the query's symbol→bitmask table
  is built once, then every target column costs a handful of bitwise
  ops *per batch*, not per character.  The table is keyed by the
  actual symbols present (a dict, then densified over the batch
  alphabet), so arbitrary unicode works; only the *query length* is
  capped by the word width.
- **bit-parallel Myers (single pair)** — :func:`levenshtein_myers`
  runs the same recurrence on Python's arbitrary-precision ints, which
  lifts the 64-character limit at a modest constant factor; used for
  long strings when no small cutoff makes banding cheaper.
- **banded scalar fallback** — the PR-1 Ukkonen-style DP with length
  pruning and early-exit cutoff (:func:`levenshtein`); kept for
  threshold tests with small cutoffs on long strings, where aborting
  beats any full-distance kernel.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.metricspace.base import Metric

#: Myers word width: query strings longer than this use the
#: arbitrary-precision variant (single-pair) or the banded fallback.
_MYERS_WORD = 64


def levenshtein(a: str, b: str, cutoff: Optional[float] = None) -> float:
    """Unit-cost Levenshtein distance between ``a`` and ``b``.

    Parameters
    ----------
    a, b:
        Input strings.
    cutoff:
        If given, the computation may stop early once the distance is
        provably greater than ``cutoff``; the return value is then any
        number strictly greater than ``cutoff`` (callers must only use
        it for threshold tests, which is how the solvers use it).

    Returns
    -------
    float
        The edit distance (or a value ``> cutoff`` on early exit).
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    if cutoff is not None and abs(la - lb) > cutoff:
        return float(abs(la - lb))
    # Keep the shorter string as the row so the DP rows are minimal.
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    prev = np.arange(la + 1, dtype=np.int64)
    cur = np.empty(la + 1, dtype=np.int64)
    a_codes = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    for j in range(1, lb + 1):
        cur[0] = j
        bj = ord(b[j - 1])
        sub_cost = (a_codes != bj).astype(np.int64)
        # cur[i] = min(prev[i] + 1, cur[i-1] + 1, prev[i-1] + sub)
        np.minimum(prev[1:] + 1, prev[:-1] + sub_cost, out=cur[1:])
        # The cur[i-1] + 1 term is a left-to-right scan dependency.
        for i in range(1, la + 1):
            left = cur[i - 1] + 1
            if left < cur[i]:
                cur[i] = left
        if cutoff is not None and cur.min() > cutoff:
            return float(cur.min())
        prev, cur = cur, prev
    return float(prev[la])


def levenshtein_myers(a: str, b: str) -> float:
    """Exact Levenshtein distance via Myers's bit-vector recurrence.

    Runs on Python's arbitrary-precision integers, so neither the
    pattern length nor the alphabet size is capped: the per-symbol
    match masks live in a dict and the state vectors simply grow to
    ``len(a)`` bits.  Cost is ``O(len(b))`` big-int operations of width
    ``len(a)`` — for strings under a few thousand characters this
    comfortably beats the quadratic scalar DP.
    """
    if a == b:
        return 0.0
    m, lb = len(a), len(b)
    if m == 0 or lb == 0:
        return float(max(m, lb))
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    peq: Dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    pv, mv, score = mask, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return float(score)


class _EncodedTexts:
    """A target batch densified once for repeated Myers passes.

    Encoding (utf-32 code matrix + alphabet factorization) is
    ``O(n_targets · longest)`` and independent of the query, so
    many-to-many kernels (``cross``) build it once per batch instead of
    once per query row.
    """

    __slots__ = ("lengths", "longest", "vocab", "inverse", "shape")

    def __init__(self, batch: Sequence[str]) -> None:
        nt = len(batch)
        self.lengths = np.fromiter(
            (len(b) for b in batch), dtype=np.int64, count=nt
        )
        self.longest = int(self.lengths.max()) if nt else 0
        if self.longest == 0:
            return
        # Dense (nt, longest) code matrix, padded with a code no real
        # character uses so padded columns match nothing.
        codes = np.full((nt, self.longest), -1, dtype=np.int64)
        for t, b in enumerate(batch):
            if b:
                codes[t, : len(b)] = np.frombuffer(
                    b.encode("utf-32-le"), dtype=np.uint32
                )
        self.shape = codes.shape
        self.vocab, inverse = np.unique(codes.ravel(), return_inverse=True)
        self.inverse = inverse.reshape(-1)

    def take(self, positions: np.ndarray) -> "_EncodedTexts":
        """The encoding restricted to a subset of targets (cutoff
        survivors), sharing the alphabet factorization."""
        sub = _EncodedTexts.__new__(_EncodedTexts)
        sub.lengths = self.lengths[positions]
        sub.longest = int(sub.lengths.max()) if len(sub.lengths) else 0
        if sub.longest == 0:
            return sub
        rows = self.inverse.reshape(self.shape)[positions][:, : sub.longest]
        sub.vocab = self.vocab
        sub.inverse = rows.reshape(-1)
        sub.shape = rows.shape
        return sub


def _myers_batch(a: str, batch: Sequence[str]) -> np.ndarray:
    """Myers distances from ``a`` (``1 <= len(a) <= 64``) to every
    string in ``batch``, vectorized over the batch with ``uint64``
    state words.

    The pattern's symbol→bitmask table is densified over the batch's
    actual alphabet (no 64-*symbol* limit — only the 64-*character*
    pattern cap of the word width), then each text column updates all
    per-target state vectors with one round of bitwise numpy ops.
    """
    return _myers_encoded(a, _EncodedTexts(batch))


def _myers_encoded(a: str, enc: _EncodedTexts) -> np.ndarray:
    m = len(a)
    lengths = enc.lengths
    nt = len(lengths)
    out = np.empty(nt, dtype=np.float64)
    out[lengths == 0] = float(m)
    longest = enc.longest
    if longest == 0:
        return out
    peq: Dict[int, int] = {}
    for i, ch in enumerate(a):
        code = ord(ch)
        peq[code] = peq.get(code, 0) | (1 << i)
    table = np.array([peq.get(int(c), 0) for c in enc.vocab], dtype=np.uint64)
    eq_all = table[enc.inverse].reshape(enc.shape)

    mask = np.uint64((1 << m) - 1)
    high = np.uint64(1 << (m - 1))
    one = np.uint64(1)
    pv = np.full(nt, mask, dtype=np.uint64)
    mv = np.zeros(nt, dtype=np.uint64)
    score = np.full(nt, m, dtype=np.int64)
    for j in range(longest):
        eq = eq_all[:, j]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        score += (ph & high != 0).astype(np.int64)
        score -= (mh & high != 0).astype(np.int64)
        ph = ((ph << one) | one) & mask
        mh = (mh << one) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
        finished = lengths == j + 1
        if finished.any():
            out[finished] = score[finished]
    return out


class EditDistanceMetric(Metric):
    """Levenshtein distance as a :class:`~repro.metricspace.base.Metric`.

    Payloads are Python strings; ``is_vector_metric`` is ``False`` so the
    dataset keeps them in a plain list.

    Parameters
    ----------
    cutoff:
        Optional global cutoff.  Safe to set to the largest threshold
        the calling algorithm will test (e.g. ``(1+ρ)ε`` plus the net
        radius slack); distances above the cutoff may be reported as
        lower bounds that still exceed it (length pruning, banded
        early exit).  The bit-parallel kernels always return the exact
        distance, which is a valid answer under the same contract.
    kernel:
        ``"auto"`` (default) picks per call: the batched Myers kernel
        for queries up to 64 characters, the arbitrary-precision Myers
        for longer ones, and the banded scalar DP when a small cutoff
        on long strings makes early exit cheaper.  ``"myers"`` /
        ``"banded"`` force one family (testing/ablation).
    """

    is_vector_metric = False

    def __init__(
        self, cutoff: Optional[float] = None, kernel: str = "auto"
    ) -> None:
        if cutoff is not None and cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        if kernel not in ("auto", "myers", "banded"):
            raise ValueError(
                f"kernel must be 'auto', 'myers' or 'banded', got {kernel!r}"
            )
        self.cutoff = cutoff
        self.kernel = kernel

    def _prefer_banded(self, la: int, lb: int) -> bool:
        """Whether the early-exit banded DP should beat bit-parallel
        Myers for this pair: only with a narrow band (small cutoff) on
        strings long enough that a full pass is real work."""
        if self.kernel == "banded":
            return True
        if self.kernel == "myers" or self.cutoff is None:
            return False
        shorter = min(la, lb)
        return shorter > 4 * _MYERS_WORD and self.cutoff * 8 < shorter

    def distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return float(max(la, lb))
        if self.cutoff is not None and abs(la - lb) > self.cutoff:
            return float(abs(la - lb))
        if self._prefer_banded(la, lb):
            return levenshtein(a, b, cutoff=self.cutoff)
        return levenshtein_myers(a, b)

    def _many(
        self, a: str, batch: Sequence[str], enc: Optional[_EncodedTexts] = None
    ) -> np.ndarray:
        """One-to-many kernel, optionally reusing a batch encoding."""
        la = len(a)
        if self.kernel == "banded" or la == 0 or la > _MYERS_WORD:
            return np.array(
                [self.distance(a, b) for b in batch], dtype=np.float64
            )
        if enc is None:
            enc = _EncodedTexts(batch)
        if self.cutoff is None:
            return _myers_encoded(a, enc)
        # Length pruning first (the lower bound |la-lb| already exceeds
        # the cutoff), then one batched Myers pass over the survivors.
        gaps = np.abs(enc.lengths - la).astype(np.float64)
        keep = np.flatnonzero(gaps <= self.cutoff)
        if keep.size == len(batch):
            return _myers_encoded(a, enc)
        out = gaps
        if keep.size:
            out[keep] = _myers_encoded(a, enc.take(keep))
        return out

    def distance_many(self, a: str, batch: Sequence[str]) -> np.ndarray:
        return self._many(a, batch)

    def cross(self, queries: Sequence[str], targets: Sequence[str]) -> np.ndarray:
        """Many-to-many kernel: the target batch is encoded *once* and
        shared across all query rows (the base-class loop would redo
        the ``O(n_targets · longest)`` densification per row)."""
        nq, nt = len(queries), len(targets)
        out = np.empty((nq, nt), dtype=np.float64)
        if nq == 0 or nt == 0:
            return out
        # Encode only when some query row can actually ride the
        # bit-parallel path; all-long-query batches take the fallback.
        enc = (
            _EncodedTexts(targets)
            if self.kernel != "banded"
            and any(1 <= len(q) <= _MYERS_WORD for q in queries)
            else None
        )
        for i in range(nq):
            out[i] = self._many(queries[i], targets, enc=enc)
        return out

    def reduced_band(self, batch: Sequence[str]) -> np.ndarray:
        """Zero: the kernels count edits exactly, and a value they
        report for a pair beyond the cutoff is a lower bound that still
        exceeds it, so no pair inside a threshold can read larger."""
        return np.zeros(len(batch), dtype=np.float64)

    def pair_distances(self, a_batch: Sequence[str], b_batch: Sequence[str]) -> np.ndarray:
        """Aligned pairs, grouped by query so repeated queries (COO
        lists grouped by sphere) share one batched Myers pass."""
        out = np.empty(len(a_batch), dtype=np.float64)
        groups: Dict[str, list] = {}
        for i, s in enumerate(a_batch):
            groups.setdefault(s, []).append(i)
        for s, positions in groups.items():
            out[np.asarray(positions)] = self.distance_many(
                s, [b_batch[i] for i in positions]
            )
        return out
