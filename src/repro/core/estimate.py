"""Runtime output-activity estimation: price early termination of SEI outputs.

The paper's "switched by input" structure already drives only the word
lines whose input bit is 1; the row-activity histograms (3-10% mean
activity in the upper layers, BENCH_perf_engine.json) say most of the
*remaining* work still computes column currents whose sense-amp output
bit is a foregone conclusion.  CompRRAE (Chen et al., arXiv 1906.03180)
cuts RRAM CNN computation by estimating output activity at runtime and
stopping early.  There the early termination is a circuit mechanism, so
software only has to *price* it: :class:`SkipModel` derives the skip
counters of one layer from its input bits and its fused block matrices,
whichever engine executed the layer.

The modelled circuit, per block crossbar of ``r`` rows:

* the *head* — the :data:`HEAD_ROWS` rows that are hottest in the priced
  batch (``mode='exact'``) or heaviest by weight magnitude
  (``mode='threshold'``) — is accumulated first;
* each column then carries the interval ``[acc + lo(k), acc + hi(k)]``
  around its final current, where ``k`` is the number of still-active
  tail rows and ``lo``/``hi`` are k-conditioned suffix tables: the sum
  of the ``k`` most negative / most positive tail weights of the column,
  or the whole negative / positive tail sum once ``k`` reaches
  :data:`MAX_K`.  A column whose interval clears its threshold is decided
  there; a position with every column it still cares about decided
  skips its tail rows;
* on split layers a column whose §4.3 vote is settled (``count >= V`` or
  ``count + remaining < V``) stops caring about later blocks, and a
  position with every vote settled skips the remaining block crossbars.

``mode='exact'`` prices that circuit with exact bounds: an early decision
is the final decision, so the engines execute their unmodified kernels
and the outputs are bit-identical to ``mode='off'`` by construction.
``mode='threshold'`` is the CompRRAE-style probabilistic variant: the
bounds are scaled by ``confidence`` in ``(0, 1]`` and the early bits
*are* the output, ``vote(where(decided_early, early_bit, exact_bit))``.
Its head order is static, so a sample's output never depends on the
rest of its batch.  See ``docs/engines.md`` and
`repro.testing.faults.estimator_confidence_sweep`.

This module is deliberately dependency-light (numpy + errors only): the
engines import it, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "EstimatorPolicy",
    "SkipStats",
    "SkipModel",
    "HEAD_ROWS",
    "MAX_K",
]

#: Rows per block accumulated before the early-decision check.
HEAD_ROWS = 64

#: Depth of the k-conditioned suffix tables; larger remaining-active
#: counts use the unconditioned (whole-tail) bound.
MAX_K = 32

_MODES = ("off", "exact", "threshold")


@dataclass(frozen=True)
class EstimatorPolicy:
    """Whether and how the engines model early output decisions.

    Parameters
    ----------
    mode:
        ``'off'`` (default; no estimator), ``'exact'`` (skip work is
        priced with exact bounds; outputs bit-identical to ``'off'``) or
        ``'threshold'`` (CompRRAE-style probabilistic early decision;
        the early bits become the output).
    confidence:
        Bound scaling for ``'threshold'`` mode, in ``(0, 1]``.  1.0
        keeps the full interval; smaller values shrink it and decide
        earlier at the cost of more output disagreement.  Ignored by
        ``'exact'``.
    """

    mode: str = "off"
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"estimator mode must be one of {', '.join(_MODES)}; "
                f"got {self.mode!r}"
            )
        if not (0.0 < float(self.confidence) <= 1.0):
            raise ConfigurationError(
                f"estimator confidence must lie in (0, 1], got "
                f"{self.confidence}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass
class SkipStats:
    """Work the modelled early termination avoids in one crossbar call.

    ``skipped_rows`` counts *active* rows (input bit 1) whose word-line
    drive / cell reads were skipped — the energy-relevant quantity the
    power model prices.  ``skipped_slots`` counts raw row positions
    regardless of activity.  ``est_positions`` is the number of
    (position, block, column) sense-amp decisions the estimator owned
    and ``est_decided`` how many it closed early — their ratio is the
    estimator hit rate surfaced on the dashboard, their difference the
    sense-amp events still paid.
    """

    skipped_rows: int = 0
    skipped_slots: int = 0
    est_positions: int = 0
    est_decided: int = 0

    def merge(self, other: "SkipStats") -> None:
        self.skipped_rows += other.skipped_rows
        self.skipped_slots += other.skipped_slots
        self.est_positions += other.est_positions
        self.est_decided += other.est_decided

    @property
    def sa_events(self) -> int:
        return self.est_positions - self.est_decided


def _suffix_bound_table(parts: np.ndarray, cap: int) -> np.ndarray:
    """Cumulative extreme-first sums: row ``k`` bounds any k-row subset.

    ``parts`` is ``(S, cols)`` of same-sign values (the negative or
    positive part of the tail weight rows).  Row ``k`` of the returned
    ``(cap+1, cols)`` table is the sum of the ``k`` largest-magnitude
    entries per column — the extreme possible contribution of exactly
    ``k`` active tail rows; rows beyond the table depth hold the full
    column sum, a sound (unconditioned) bound for any larger count.
    """
    cols = parts.shape[1]
    table = np.zeros((cap + 1, cols), dtype=parts.dtype)
    size = parts.shape[0]
    if size == 0:
        return table
    # Ascending sort puts the most negative first; flip for positives.
    ordered = np.sort(parts, axis=0)
    if parts.max(initial=0) > 0:
        ordered = ordered[::-1]
    csum = np.cumsum(ordered, axis=0)
    depth = min(cap - 1, size)
    if depth > 0:
        table[1 : depth + 1] = csum[:depth]
    table[depth + 1 :] = csum[size - 1]
    return table


Threshold = Union[float, Callable[[np.ndarray], np.ndarray]]


class SkipModel:
    """The early-termination model of one SEI layer.

    Parameters
    ----------
    matrices:
        Per-block fused ``(rows_k, cols)`` crossbar matrices (one for an
        unsplit layer).
    blocks:
        Per-block indices of the block's rows in the layer's input bits.
    bias:
        Per-column constant added to every block sum (the block bias of
        a split layer, the layer bias of an unsplit one).
    threshold:
        A block fires a column when its sum exceeds this: a constant, or
        a function of the per-position active-row counts of the block
        (the §4.3 dynamic block thresholds).
    vote:
        §4.3 vote threshold over the block bits (1 for an unsplit layer).
    policy:
        ``'exact'`` or ``'threshold'`` :class:`EstimatorPolicy`.
    """

    def __init__(
        self,
        matrices: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        bias: np.ndarray,
        threshold: Threshold,
        vote: int,
        policy: EstimatorPolicy,
    ) -> None:
        if not policy.enabled:
            raise ConfigurationError("a SkipModel needs an enabled policy")
        self._matrices = [np.asarray(m, dtype=np.float64) for m in matrices]
        self._blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
        if len(self._matrices) != len(self._blocks) or any(
            m.ndim != 2 or m.shape[0] != len(b)
            for m, b in zip(self._matrices, self._blocks)
        ):
            raise ConfigurationError(
                "SkipModel needs one 2D matrix per block, with one row "
                "per block row index"
            )
        self.cols = self._matrices[0].shape[1]
        self.exact = policy.exact
        self.vote = int(vote)
        self._bias = np.asarray(bias, dtype=np.float64)
        self._threshold = (
            threshold if callable(threshold) else lambda ones: threshold
        )
        self._confidence = 1.0 if self.exact else float(policy.confidence)
        # Threshold mode's head order is static (heaviest rows first),
        # so its outputs stay batch-invariant; exact mode reorders per
        # call by the priced batch's own row activity.
        self._static = None
        if not self.exact:
            self._static = [
                self._tables(
                    m, np.argsort(-np.abs(m).max(axis=1), kind="stable")
                )
                for m in self._matrices
            ]

    def _tables(self, matrix: np.ndarray, order: np.ndarray) -> tuple:
        """Head rows, tail rows and the scaled ``lo``/``hi`` tables."""
        head, tail = order[:HEAD_ROWS], order[HEAD_ROWS:]
        suffix = matrix[tail]
        lo = _suffix_bound_table(np.minimum(suffix, 0.0), MAX_K)
        hi = _suffix_bound_table(np.maximum(suffix, 0.0), MAX_K)
        return head, tail, lo * self._confidence, hi * self._confidence

    def price(self, bits: np.ndarray) -> Tuple[np.ndarray, SkipStats]:
        """Modelled output plane and skip counters for ``(n, rows)`` bits.

        The output is the ``(n, cols)`` float64 0/1 vote plane under the
        modelled early decisions — the layer output in ``'threshold'``
        mode, the off-mode output in ``'exact'`` mode.
        """
        bits = np.asarray(bits, dtype=np.float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        n = bits.shape[0]
        # Exact mode's head order: the whole batch's row activity.
        activity = bits.sum(axis=0)
        stats = SkipStats()
        counts = np.zeros((n, self.cols), dtype=np.int64)
        settled = np.zeros((n, self.cols), dtype=bool)
        alive = np.arange(n)
        last = len(self._blocks) - 1
        for k in range(last + 1):
            if alive.size == 0:
                break
            local = bits[np.ix_(alive, self._blocks[k])]
            block_bits, block_stats = self._price_block(
                k, local, ~settled[alive], activity[self._blocks[k]]
            )
            stats.merge(block_stats)
            counts[alive] += block_bits
            remaining = last - k
            if not remaining:
                break
            c = counts[alive]
            now = (
                settled[alive] | (c >= self.vote) | (c + remaining < self.vote)
            )
            settled[alive] = now
            retire = now.all(axis=1)
            if retire.any():
                # Vote-level retirement: the later block crossbars are
                # never driven for these positions.
                gone = alive[retire]
                for rows in self._blocks[k + 1 :]:
                    stats.skipped_rows += int(bits[np.ix_(gone, rows)].sum())
                    stats.skipped_slots += gone.size * rows.size
                alive = alive[~retire]
        return (counts >= self.vote).astype(np.float64), stats

    def _price_block(
        self, k: int, local: np.ndarray, care: np.ndarray,
        activity: np.ndarray,
    ) -> Tuple[np.ndarray, SkipStats]:
        """One block's modelled bits and counters.

        ``care`` masks the columns whose vote is still open: only those
        are owned by the estimator and can hold a position back.
        ``activity`` is the batch's active count per block row.
        """
        matrix = self._matrices[k]
        thr = np.reshape(self._threshold(local.sum(axis=1)), (-1, 1))
        exact_bit = local @ matrix + self._bias > thr
        stats = SkipStats(est_positions=int(care.sum()))
        if matrix.shape[0] <= HEAD_ROWS:
            return exact_bit, stats
        if self._static is not None:
            head, tail, lo, hi = self._static[k]
        else:
            order = np.argsort(-activity, kind="stable")
            head, tail, lo, hi = self._tables(matrix, order)
        acc = local[:, head] @ matrix[head] + self._bias
        tail_k = local[:, tail].sum(axis=1)
        kk = np.minimum(tail_k, MAX_K).astype(np.intp)
        early = acc + lo[kk] > thr
        decided = (early | (acc + hi[kk] <= thr)) & care
        stats.est_decided += int(decided.sum())
        done = ~(care & ~decided).any(axis=1)
        stats.skipped_rows += int(tail_k[done].sum())
        stats.skipped_slots += int(done.sum()) * tail.size
        return np.where(decided, early, exact_bit), stats
