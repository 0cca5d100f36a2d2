"""Splitting large matrices without ADCs (§4.3, Fig. 2d).

A matrix whose SEI image exceeds the maximum crossbar height is split
row-wise into K blocks.  Each block is a full SEI crossbar that makes its
own 1-bit decision against a *block threshold* (the paper's example:
``Thres/3`` for three blocks); small digital circuits then combine the K
block bits:

* for **hidden (thresholded) layers** the output bit fires when at least
  ``vote_threshold`` blocks fired — "a new digital threshold for the sum
  of sub-matrix results";
* for the **final classifier layer** (whose unsplit output is an analog
  argmax) we interpret the paper's "digital peripheral circuits to
  process the 1-bit out signals" as counting, per class column, how many
  blocks fired and taking the argmax of the counts — a pure digital
  comparator tree, still ADC-free.  The class threshold it needs is
  calibrated on the training set like every other threshold.

Both decisions are wrecked by row randomness (Table 4: random orders lose
up to ~50% accuracy) and repaired by

* **matrix homogenization** (:mod:`repro.core.homogenize`) — a-priori
  balancing of the blocks; and
* **dynamic block thresholds** — each block's threshold gets a term
  proportional to its own count of active inputs,
  ``T_k = c0 + c1 * ones_k``, produced in hardware by the Fig. 4
  dynamic-threshold column (a-posteriori compensation).  ``c1`` is
  parameterised as ``gamma * T / E[#ones total]`` with ``c0`` chosen so
  the expected total threshold stays T; ``gamma`` (the "interval of
  dynamic threshold") is optimised on the training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.nn.layers import Layer

from repro.core.homogenize import Partition, natural_partition
from repro.core.matrix_compute import (
    apply_matrix_fn,
    ensure_binary,
    layer_bias,
    layer_weight_matrix,
)

__all__ = [
    "required_blocks",
    "contiguous_spans",
    "SplitDecision",
    "SplitMatrix",
    "split_layer_compute",
    "final_layer_vote_compute",
]


def required_blocks(
    logical_rows: int, max_crossbar_size: int, cells_per_weight: int = 4
) -> int:
    """Number of row blocks needed so each SEI block fits the crossbar.

    E.g. the paper's Network 1 conv layer 2 has 300 logical rows; with 4
    cells per weight that is a 1200-row SEI image, needing three blocks of
    100 logical rows (three 400x64 crossbars) under the 512 limit.
    """
    if logical_rows <= 0 or max_crossbar_size <= 0 or cells_per_weight <= 0:
        raise ConfigurationError("all sizes must be positive")
    return max(1, ceil(logical_rows * cells_per_weight / max_crossbar_size))


def contiguous_spans(
    blocks: Sequence[np.ndarray],
) -> Optional[List[Tuple[int, int]]]:
    """Each block's ``(start, stop)`` row range, or None if any block is
    empty or not a contiguous ascending run (a scattered partition).

    Kernels over contiguous blocks slice their input instead of
    gathering it.
    """
    spans: List[Tuple[int, int]] = []
    for block in blocks:
        block = np.asarray(block)
        if block.size == 0:
            return None
        start = int(block[0])
        if not np.array_equal(block, np.arange(start, start + block.size)):
            return None
        spans.append((start, start + block.size))
    return spans


@dataclass(frozen=True)
class SplitDecision:
    """The decision rule applied to one split layer.

    ``block_threshold`` is the static part ``c0`` (same for every block),
    ``ones_slope`` the dynamic coefficient ``c1`` and ``vote_threshold``
    the digital vote count V.  A hidden layer fires a column when at least
    V blocks fired it; the final layer classifies by argmax of per-class
    fired-block counts (V unused).
    """

    block_threshold: float
    ones_slope: float = 0.0
    vote_threshold: int = 1

    def thresholds_for(self, ones_per_block: np.ndarray) -> np.ndarray:
        """Per-block thresholds ``c0 + c1 * ones_k``."""
        return self.block_threshold + self.ones_slope * ones_per_block


class SplitMatrix:
    """A weight matrix split row-wise into independently deciding blocks."""

    def __init__(
        self,
        weights: np.ndarray,
        partition: Partition,
        decision: SplitDecision,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2D, got {weights.shape}")
        if partition.num_rows != weights.shape[0]:
            raise ShapeError(
                f"partition covers {partition.num_rows} rows, matrix has "
                f"{weights.shape[0]}"
            )
        self.weights = weights
        self.partition = partition
        self.decision = decision
        self.blocks = partition.blocks()
        # Fused layout: all K block MVMs run as ONE batched matmul.  Blocks
        # are (nearly) equal-sized row subsets, so they pad to a common
        # height; padded positions gather from a zero sentinel column
        # appended to the input bits and multiply zero weight rows, leaving
        # the partial sums untouched.
        sizes = [len(block) for block in self.blocks]
        height = max(sizes)
        rows = weights.shape[0]
        self._gather = np.full((len(self.blocks), height), rows, dtype=np.intp)
        self._padded_weights = np.zeros((len(self.blocks), height, self.cols))
        for k, block in enumerate(self.blocks):
            idx = np.asarray(block, dtype=np.intp)
            self._gather[k, : len(idx)] = idx
            self._padded_weights[k, : len(idx)] = weights[idx]
        # Equal-sized blocks (the common case) gather straight from the
        # input bits; only ragged partitions need the zero sentinel
        # column appended.
        self._needs_sentinel = min(sizes) < height
        if not 1 <= decision.vote_threshold <= len(self.blocks):
            raise ConfigurationError(
                f"vote threshold {decision.vote_threshold} outside "
                f"[1, {len(self.blocks)}]"
            )
        # The bias (only the final FC layer has one) is divided evenly
        # over the blocks, mirroring the threshold division.
        if bias is None:
            self.block_bias = np.zeros(weights.shape[1])
        else:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (weights.shape[1],):
                raise ShapeError(
                    f"bias must have shape ({weights.shape[1]},), "
                    f"got {bias.shape}"
                )
            self.block_bias = bias / len(self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    # -- analog stage ---------------------------------------------------------
    def _as_rows(self, bits: np.ndarray) -> np.ndarray:
        """Validated 2D float view of the input bits."""
        bits = np.asarray(bits, dtype=np.float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        if bits.shape[1] != self.weights.shape[0]:
            raise ShapeError(
                f"input has {bits.shape[1]} bits, matrix has "
                f"{self.weights.shape[0]} rows"
            )
        return bits

    def _gathered(self, bits: np.ndarray) -> np.ndarray:
        """Input bits rearranged to the padded block layout ``(n, K, H)``."""
        bits = self._as_rows(bits)
        if self._needs_sentinel:
            bits = np.concatenate(
                [bits, np.zeros((bits.shape[0], 1))], axis=1
            )
        num_blocks, height = self._gather.shape
        # One flat gather; the block view is then a free reshape and the
        # per-block slices below are BLAS-strided views (no copies).
        flat = bits[:, self._gather.reshape(-1)]
        return flat.reshape(bits.shape[0], num_blocks, height)

    def _block_matrices(self) -> np.ndarray:
        """The ``(K, H, cols)`` padded matrices the batched MVM multiplies."""
        return self._padded_weights

    def _sums_from_gathered(self, gathered: np.ndarray) -> np.ndarray:
        matrices = self._block_matrices()
        sums = np.empty(
            (gathered.shape[0], gathered.shape[1], matrices.shape[2])
        )
        # K is small; each term is a single dgemm on a strided view of
        # the gathered layout, which BLAS consumes without copying.
        for k in range(gathered.shape[1]):
            np.matmul(gathered[:, k, :], matrices[k], out=sums[:, k, :])
        return sums + self.block_bias

    def block_sums(self, bits: np.ndarray) -> np.ndarray:
        """Per-block partial MVMs: shape ``(n, K, cols)``.

        Fused: one batched matmul over the padded block layout instead of
        a Python loop over blocks.
        """
        return self._sums_from_gathered(self._gathered(bits))

    def block_sums_reference(self, bits: np.ndarray) -> np.ndarray:
        """Pre-fusion per-block loop, retained as the equivalence oracle."""
        bits = np.asarray(bits, dtype=np.float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        if bits.shape[1] != self.weights.shape[0]:
            raise ShapeError(
                f"input has {bits.shape[1]} bits, matrix has "
                f"{self.weights.shape[0]} rows"
            )
        sums = np.empty((bits.shape[0], self.num_blocks, self.cols))
        for k, block in enumerate(self.blocks):
            sums[:, k, :] = (
                self._block_reference(k, bits[:, block]) + self.block_bias
            )
        return sums

    def _block_reference(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Block ``k``'s partial sums for its own input rows."""
        return rows @ self.weights[self.blocks[k]]

    def ones_per_block(self, bits: np.ndarray) -> np.ndarray:
        """Active-input counts per block: shape ``(n, K)``."""
        return self._gathered(bits).sum(axis=2)

    # -- digital stage ----------------------------------------------------------
    def block_bits(self, bits: np.ndarray) -> np.ndarray:
        """1-bit outputs of each block's sense amplifiers: ``(n, K, cols)``.

        The block layout is gathered once and feeds both the partial sums
        and the active-input counts; the threshold comparison writes the
        0/1 floats in a single ufunc pass.
        """
        gathered = self._gathered(bits)
        sums = self._sums_from_gathered(gathered)
        thresholds = self.decision.thresholds_for(gathered.sum(axis=2))
        out = np.empty_like(sums)
        np.greater(sums, thresholds[:, :, None], out=out, casting="unsafe")
        return out

    def fired_counts(self, bits: np.ndarray) -> np.ndarray:
        """Per column, how many blocks fired: ``(n, cols)`` integers."""
        return self.block_bits(bits).sum(axis=1)

    def fire(self, bits: np.ndarray) -> np.ndarray:
        """Hidden-layer output bits: fired-count >= vote threshold."""
        return (
            self.fired_counts(bits) >= self.decision.vote_threshold
        ).astype(np.float64)


def _record_split(
    matrix: SplitMatrix,
    obs_index: Optional[int],
    cells_per_weight: int,
    bits: np.ndarray,
) -> None:
    rec = obs.active()
    if rec is None or obs_index is None:
        return
    from repro.obs.power import record_mvm_batch

    record_mvm_batch(
        rec.metrics,
        obs_index,
        bits,
        matrix.cols,
        blocks=matrix.num_blocks,
        cells_per_weight=cells_per_weight,
    )


def split_layer_compute(
    layer: Layer,
    matrix: SplitMatrix,
    obs_index: Optional[int] = None,
    cells_per_weight: int = 4,
):
    """Layer-compute hook for a *hidden* split layer.

    Returns the 0/1 outputs directly; the enclosing BinarizedNetwork's
    re-thresholding (any threshold in [0, 1)) leaves them unchanged.
    ``obs_index`` enables per-layer activity counters (MVMs, SA events,
    row activity) under ``hw/layer{obs_index}`` while a recorder is on.
    """
    weight_matrix = layer_weight_matrix(layer)
    if weight_matrix.shape != matrix.weights.shape:
        raise MappingError(
            f"split matrix shape {matrix.weights.shape} does not match "
            f"layer weight matrix {weight_matrix.shape}"
        )

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        _record_split(matrix, obs_index, cells_per_weight, bits)
        return matrix.fire(bits)

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        # The SplitMatrix folds the layer bias into its block sums, so the
        # generic bias addition is disabled.
        return apply_matrix_fn(inner_layer, x, matrix_fn, add_bias=False)

    return compute


def final_layer_vote_compute(
    layer: Layer,
    matrix: SplitMatrix,
    obs_index: Optional[int] = None,
    cells_per_weight: int = 4,
):
    """Layer-compute hook for the *final classifier* split layer.

    Produces per-class fired-block counts; argmax over them is the
    classification (digital comparator tree, no ADC).  ``obs_index``
    enables the same per-layer activity counters as
    :func:`split_layer_compute`.
    """
    weight_matrix = layer_weight_matrix(layer)
    if weight_matrix.shape != matrix.weights.shape:
        raise MappingError(
            f"split matrix shape {matrix.weights.shape} does not match "
            f"layer weight matrix {weight_matrix.shape}"
        )

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        _record_split(matrix, obs_index, cells_per_weight, bits)
        return matrix.fired_counts(bits)

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(
            inner_layer, x, matrix_fn, add_bias=False
        )

    return compute
