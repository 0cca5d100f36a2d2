"""The ``packed`` engine: bit-packed popcount arithmetic for SEI crossbars.

After 1-bit quantization every SEI operand is a selection mask, and a
column current is exactly "sum of the weights on active rows" (Equ. 6).
The fused engine still evaluates that masked row-sum as a dense float
matmul over 0/1-valued float64 bits.  This engine exploits two facts the
float path cannot:

* **activations pack**: a receptive field of R bits is ``R/8`` bytes
  after :func:`np.packbits` (uint64 words via :class:`PackedBits`), so
  the whole batch's selection state moves through the cache at 1 bit per
  activation instead of 64;
* **integral weights**: without programming variation a programmed SEI
  crossbar represents ``unit * N`` for an integer matrix ``N`` (4-bit
  nibbles merged by the +-16/+-1 extra-port coefficients; stuck cells
  land on nibble 0 or 15 and keep integrality, and IR drop is a scalar
  folded into ``unit``).  Masked row-sums over an integer matrix are
  computed exactly in int16 arithmetic.

The kernel precomputes, per crossbar at assemble time, one partial-sum
table per 8-row group: ``tables[g][p]`` holds the column sums of the
group's rows selected by byte pattern ``p``.  Tables are built by
shared-prefix grouping (:func:`build_group_tables`): patterns ``p`` and
``p ^ lsb(p)`` share every row above the lowest set bit, so each entry
is one vector add off an already-built prefix — 256 adds per group
instead of 1024 row sums.  At inference each position then needs one
table gather per *non-zero* byte of its packed pattern; with the paper's
Table 1 activity levels (2-10% ones) ~85% of the byte lanes are zero and
are skipped wholesale.  Active-row counts (for the Fig. 4 dynamic block
thresholds and the `repro.obs` power counters) come from popcounting the
packed planes (:func:`repro._compat.popcount` — ``np.bitwise_count`` or
its LUT fallback), never from float reductions.  Split-layer block
decisions never leave the integer domain either: the Equ. 7 comparison
``unit * acc + bias > T(ones)`` is pre-solved at assemble time into a
per-(block, ones) table of minimal firing accumulator values, so
inference compares int16 accumulators against gathered int16 thresholds.

The engine is a kernel table over the same layer plans as the fused
engine (:func:`repro.core.hardware_network.plan_layers`: identical RNG
stream, identical programmed cells).  A plan whose crossbars are
integral (``plan.units`` set) runs the packed integer kernel; a plan
that is not (programming variation, per-read noise) runs the fused
kernel, so noise lands as the same float corrections the fused engine
applies, and conformance against the reference oracle holds at
``SEI_RTOL``/``SEI_ATOL`` in every noise regime.  The DAC-driven input
layer (§3.2) carries 8-bit levels rather than selection bits; it is
lowered to integer DAC codes (``k/steps`` levels become uint8 ``k``)
against the same merged analog matrix, which needs no integrality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._compat import popcount
from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.hardware_network import (
    FUSED_KERNELS,
    LayerPlan,
    assemble_plans,
    skip_binary_relus,
)
from repro.core.matrix_compute import ensure_binary, layer_bias
from repro.core.splitting import contiguous_spans

__all__ = [
    "PackedBits",
    "pack_bits",
    "unpack_bits",
    "build_group_tables",
    "PackedMatrix",
    "PACKED_KERNELS",
    "assemble_packed_network",
]

#: Rows per packed group: one byte lane of the packed activation plane.
GROUP_ROWS = 8

#: Rows per uint8->float64 widening chunk in the DAC input lowering;
#: sized so chunk * im2col-width float64 stays cache-resident.
_DAC_CHUNK = 4096

#: Positions per accumulate/decide tile in the split compute; sized so
#: the integer accumulators, decision temporaries and group tables of a
#: tile all stay cache-resident (a whole-batch accumulator gets evicted
#: between the accumulate and decide passes).
_SPLIT_TILE = 4096


# -- packing -------------------------------------------------------------------


class _Scratch:
    """Reusable per-kernel temporaries, keyed by name.

    Large per-call arrays (unfolded receptive fields, integer
    accumulators, chunked matmul outputs) otherwise bounce through the
    allocator's mmap path and re-fault every page on each batch — ~25ms
    per forward at MNIST batch sizes.  Buffers reallocate when the
    requested shape or dtype changes (a new batch size) and are NOT
    thread-safe: a compiled network's computes must run serially, which
    the inference paths (``forward``/``predict``/``serve`` tiles) do.
    """

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if (
            buf is None
            or buf.shape != tuple(shape)
            or buf.dtype != np.dtype(dtype)
        ):
            buf = np.empty(shape, dtype)
            self._bufs[key] = buf
        return buf


@dataclass(frozen=True)
class PackedBits:
    """A batch of binary activation rows in bit-plane form.

    ``codes`` is the byte plane ``(n, groups)`` produced by
    ``np.packbits`` (row ``8*g + j`` of the source occupies bit ``7-j``
    of byte ``g`` — MSB-first, numpy's default).  ``words`` views the
    same plane as zero-padded uint64 words, the layout word-at-a-time
    popcount consumers use; it is materialised on demand.  ``rows`` is
    the unpadded logical row count.
    """

    codes: np.ndarray
    rows: int

    @property
    def words(self) -> np.ndarray:
        return _codes_to_words(self.codes)

    @property
    def groups(self) -> int:
        return self.codes.shape[1]


def _codes_to_words(codes: np.ndarray) -> np.ndarray:
    """View a byte plane as uint64 words, zero-padding to word width."""
    groups = codes.shape[1]
    word_bytes = -(-groups // 8) * 8
    if word_bytes != groups:
        padded = np.zeros((codes.shape[0], word_bytes), dtype=np.uint8)
        padded[:, :groups] = codes
    else:
        padded = np.ascontiguousarray(codes)
    return padded.view(np.uint64)


def pack_bits(bits: np.ndarray) -> PackedBits:
    """Pack ``(n, rows)`` 0/1 values into byte and uint64 bit planes."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ShapeError(f"pack_bits expects (n, rows), got {bits.shape}")
    codes = np.packbits(bits, axis=1)
    return PackedBits(codes=codes, rows=bits.shape[1])


def unpack_bits(packed: PackedBits) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the ``(n, rows)`` uint8 0/1 plane."""
    return np.unpackbits(packed.codes, axis=1)[:, : packed.rows]


# -- precomputed row-weight partial sums ---------------------------------------


def build_group_tables(rows: np.ndarray) -> np.ndarray:
    """Per-group partial-sum tables for integer weight rows.

    ``rows`` is ``(R, cols)`` integer weight rows with ``R`` a multiple
    of 8.  Returns ``(R/8, 256, cols)`` where entry ``[g, p]`` is the
    column sum of group ``g``'s rows selected by byte pattern ``p``
    (bit ``7-j`` selects row ``8*g + j``, matching ``np.packbits``).

    Construction is by shared-prefix grouping: enumerating patterns in
    ascending bit order, ``p`` and ``p ^ lsb(p)`` agree on every row
    above the lowest set bit, so each entry is exactly one vector add
    on top of an already-built shared prefix::

        T[g, p] = T[g, p ^ lsb(p)] + rows[8*g + bit_row(lsb(p))]

    The dtype is int16 when every possible group sum fits (true for
    8-bit weights on 4-bit cells, |row| <= 255), else int32.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ShapeError(f"expected (rows, cols), got {rows.shape}")
    if rows.shape[0] % GROUP_ROWS != 0:
        raise ShapeError(
            f"row count {rows.shape[0]} is not a multiple of {GROUP_ROWS}; "
            "pad the block layout first"
        )
    if not np.issubdtype(rows.dtype, np.integer):
        raise ConfigurationError(
            f"group tables need integer rows, got dtype {rows.dtype}"
        )
    groups = rows.shape[0] // GROUP_ROWS
    worst = int(
        np.abs(rows.astype(np.int64))
        .reshape(groups, GROUP_ROWS, rows.shape[1])
        .sum(axis=1)
        .max(initial=0)
    )
    dtype = np.int16 if worst <= np.iinfo(np.int16).max else np.int32
    tables = np.zeros((groups, 256, rows.shape[1]), dtype=dtype)
    for g in range(groups):
        group_rows = rows[g * GROUP_ROWS : (g + 1) * GROUP_ROWS]
        for j in range(GROUP_ROWS - 1, -1, -1):
            bit = 1 << (GROUP_ROWS - 1 - j)
            # Patterns [bit, 2*bit) extend the fully-built shared
            # prefixes [0, bit) by exactly row j.
            tables[g, bit : 2 * bit] = tables[g, :bit] + group_rows[j].astype(
                dtype
            )
    return tables


# -- the packed crossbar kernel ------------------------------------------------


class PackedMatrix:
    """One logical SEI matrix on the packed integer kernel.

    Compiled once per crossbar (group) at assemble time from the fused
    block matrices ``unit_k * N_k``; evaluates masked row-sums of all
    blocks for a batch of packed positions in integer arithmetic.

    Parameters
    ----------
    block_matrices:
        Per-block collapsed float matrices (``SEIMatrix.fused_matrix`` —
        scale and IR drop included).
    block_units:
        Per-block ``unit`` such that ``block_matrices[k] == unit_k * N_k``
        for integer ``N_k`` (the plan's ``units``).
    blocks:
        Per-block logical-row index lists (the partition; word-line
        order of each block's crossbar).
    rows:
        Logical row count of the unsplit matrix.
    """

    def __init__(
        self,
        block_matrices: Sequence[np.ndarray],
        block_units: Sequence[float],
        blocks: Sequence[np.ndarray],
        rows: int,
    ) -> None:
        if len(block_matrices) != len(blocks):
            raise MappingError(
                f"{len(block_matrices)} block matrices for "
                f"{len(blocks)} partition blocks"
            )
        self.rows = int(rows)
        self.cols = int(block_matrices[0].shape[1])
        self.num_blocks = len(blocks)
        self.block_lengths = [len(block) for block in blocks]
        # Word-line padding: each block pads to a whole number of byte
        # lanes so packed groups never straddle blocks; padded rows
        # gather from a zero sentinel and carry zero weight rows.
        height = max(self.block_lengths)
        self.block_height = -(-height // GROUP_ROWS) * GROUP_ROWS
        self.groups_per_block = self.block_height // GROUP_ROWS
        padded_rows = self.num_blocks * self.block_height
        self.units = np.asarray(block_units, dtype=np.float64)

        gather = np.full(padded_rows, self.rows, dtype=np.intp)
        int_rows = np.zeros((padded_rows, self.cols), dtype=np.int64)
        for k, (block, matrix) in enumerate(zip(blocks, block_matrices)):
            index = np.asarray(block, dtype=np.intp)
            start = k * self.block_height
            gather[start : start + len(index)] = index
            int_rows[start : start + len(index)] = np.rint(
                matrix / self.units[k]
            ).astype(np.int64)
        self._gather = gather
        # Contiguous-range partitions (natural splits, unsplit layers)
        # skip the row gather entirely: each block packs straight from a
        # slice of the input, with np.packbits supplying the trailing
        # zero padding.
        self._ranges = contiguous_spans(blocks)
        self.tables = build_group_tables(int_rows)
        # Accumulator dtype: |acc| never exceeds the per-column sum of
        # |N| over a block's rows, so int16 is safe (and halves memory
        # traffic) whenever that bound fits.
        abs_cols = np.abs(int_rows).reshape(
            self.num_blocks, self.block_height, self.cols
        )
        self.acc_bound = int(abs_cols.sum(axis=1).max(initial=0))
        self.acc_dtype = (
            np.int16 if self.acc_bound < np.iinfo(np.int16).max else np.int32
        )
        self._scratch = _Scratch()

    # -- per-call kernel -------------------------------------------------------
    def pack(self, bits_u8: np.ndarray) -> PackedBits:
        """Pack validated ``(n, rows)`` uint8 bits in block order.

        The returned plane lives in this matrix's scratch space: it is
        overwritten by the next ``pack`` call on the same matrix.
        """
        if bits_u8.ndim != 2 or bits_u8.shape[1] != self.rows:
            raise ShapeError(
                f"input has shape {bits_u8.shape}, matrix has "
                f"{self.rows} logical rows"
            )
        n = bits_u8.shape[0]
        total_groups = self.num_blocks * self.groups_per_block
        if self._ranges is not None:
            codes = self._scratch.get("codes", (n, total_groups), np.uint8)
            codes.fill(0)
            for k, (lo, hi) in enumerate(self._ranges):
                lanes = -(-(hi - lo) // GROUP_ROWS)
                start = k * self.groups_per_block
                codes[:, start : start + lanes] = np.packbits(
                    bits_u8[:, lo:hi], axis=1
                )
        else:
            with_sentinel = self._scratch.get(
                "sentinel", (n, self.rows + 1), np.uint8
            )
            with_sentinel[:, : self.rows] = bits_u8
            with_sentinel[:, self.rows] = 0
            codes = np.packbits(with_sentinel[:, self._gather], axis=1)
        return PackedBits(
            codes=codes, rows=self.num_blocks * self.block_height
        )

    def ones_per_block(self, packed: PackedBits) -> np.ndarray:
        """Active-row counts per block, ``(n, K)``, by popcount."""
        counts = popcount(packed.codes).astype(np.int16)
        if self.num_blocks == 1:
            return counts.sum(axis=1, dtype=np.int64)[:, None]
        starts = np.arange(0, packed.groups, self.groups_per_block)
        return np.add.reduceat(counts, starts, axis=1).astype(np.int64)

    def accumulate(self, packed: PackedBits) -> np.ndarray:
        """Integer masked row-sums per block, ``(K, n, cols)``.

        One table gather per non-zero byte lane, accumulated in the
        narrowest safe integer dtype; scaling by ``units`` happens only
        at the consumer (or never, for the integer decision path) —
        ``units[k] * acc[k]`` is Equ. 6's analog sum with the current
        summation replaced by integer adds.  The accumulator is scratch
        space, overwritten by the next call on this matrix.
        """
        codes = packed.codes
        n = codes.shape[0]
        acc = self._scratch.get(
            "acc", (self.num_blocks, n, self.cols), self.acc_dtype
        )
        self.accumulate_into(codes, acc)
        return acc

    def accumulate_into(self, codes: np.ndarray, acc: np.ndarray) -> None:
        """Accumulate masked row-sums of a byte plane into ``acc``.

        ``acc`` is ``(num_blocks, len(codes), cols)`` in ``acc_dtype``
        and is zero-filled first.  Callers tile large batches through a
        small ``acc`` so the accumulator, decision temporaries and group
        tables stay cache-resident.
        """
        acc.fill(0)
        for k in range(self.num_blocks):
            block_acc = acc[k]
            for g in range(
                k * self.groups_per_block, (k + 1) * self.groups_per_block
            ):
                lane = codes[:, g]
                active = np.flatnonzero(lane)
                if active.size:
                    block_acc[active] += self.tables[g][lane[active]]

    def compute(self, bits_u8: np.ndarray) -> np.ndarray:
        """Unsplit column outputs ``(n, cols)`` (single-block sum)."""
        packed = self.pack(bits_u8)
        acc = self.accumulate(packed)
        out = acc[0].astype(np.float64)
        out *= self.units[0]
        for k in range(1, self.num_blocks):
            out += acc[k] * self.units[k]
        return out


def _decision_tables(
    matrix: PackedMatrix, decision, block_bias: np.ndarray
) -> List[np.ndarray]:
    """Per-block integer firing thresholds, indexed by active-row count.

    Solves the §4.3 block comparison ``unit_k * acc + bias_c >
    thresholds_for(ones)`` for the minimal integer accumulator value, so
    inference replaces the float64 sums/thresholds with an int16 table
    gather: block ``k`` fires at a position iff
    ``acc[k] >= table[k][ones_k]`` columnwise.
    """
    tables = []
    bias = np.asarray(block_bias, dtype=np.float64)
    # Any value beyond the accumulator bound means "always"/"never".
    lo, hi = -(matrix.acc_bound + 1), matrix.acc_bound + 1
    for k in range(matrix.num_blocks):
        ones = np.arange(matrix.block_lengths[k] + 1, dtype=np.float64)
        thresholds = np.asarray(
            decision.thresholds_for(ones), dtype=np.float64
        )
        # Strict inequality: the minimal firing acc is floor(q) + 1 both
        # when q = (T - bias) / unit is fractional (= ceil(q)) and when
        # it is exactly integral (equality does not fire).
        quotient = (thresholds[:, None] - bias[None, :]) / matrix.units[k]
        minimal = np.floor(quotient) + 1.0
        tables.append(np.clip(minimal, lo, hi).astype(matrix.acc_dtype))
    return tables


# -- layer kernels ---------------------------------------------------------------


def _as_uint8_bits(x: np.ndarray, what: str) -> np.ndarray:
    """Validate 0/1 inputs on the compact layout and narrow to uint8."""
    if x.dtype == np.uint8:
        return x
    ensure_binary(x, what)
    return x.astype(np.uint8)


def _apply_packed(
    layer: Layer,
    x: np.ndarray,
    matrix_fn,
    add_bias: bool = True,
    scratch: Optional[_Scratch] = None,
) -> np.ndarray:
    """im2col/fold plumbing of ``apply_matrix_fn`` on the uint8 path.

    The unfold runs on uint8 feature maps, so receptive fields move
    8x less data than the float64 im2col of the fused engine; with a
    ``scratch``, the unfolded plane also reuses one buffer across
    batches.  The folded Conv2D output stays a transposed view (the
    enclosing binarization writes a fresh buffer anyway).  As in
    :func:`repro.core.matrix_compute.apply_matrix_fn`, the bias is added
    on the flat ``(positions, cols)`` output before the Conv2D fold.
    """
    if isinstance(layer, Dense):
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            raise ShapeError(
                f"Dense packed compute expects (n, {layer.in_features}), "
                f"got {x.shape}"
            )
        out = matrix_fn(x)
        if add_bias:
            # In-place: every packed matrix_fn's output is writable.
            out += layer_bias(layer)
        return out
    if isinstance(layer, Conv2D):
        n, _, h, w = x.shape
        kernel = layer.kernel_size
        out_h = F.conv_output_size(h, kernel, layer.stride, layer.padding)
        out_w = F.conv_output_size(w, kernel, layer.stride, layer.padding)
        unfold_out = None
        if scratch is not None:
            unfold_out = scratch.get(
                "im2col", (n * out_h * out_w, x.shape[1] * kernel * kernel),
                x.dtype,
            )
        cols = F.im2col(
            x, kernel, kernel, layer.stride, layer.padding, out=unfold_out
        )
        out = matrix_fn(cols)
        if add_bias:
            out += layer_bias(layer)
        return out.reshape(n, out_h, out_w, layer.out_channels).transpose(
            0, 3, 1, 2
        )
    raise ShapeError(f"cannot apply a packed compute to {type(layer).__name__}")


def _packed_merge(plan: LayerPlan):
    """Analog-merge layer (an unsplit layer is a one-block merge).

    Block accumulators scale by their units and sum in float64.  A
    hidden layer's output feeds straight into the enclosing binarization
    (which writes a fresh plane), so it lives in scratch and is
    rewritten on the next batch; a final layer's escapes to the caller
    and allocates fresh.
    """
    if plan.units is None or plan.threshold_mode:
        return FUSED_KERNELS["merge"](plan)
    matrix = PackedMatrix(
        [crossbar.fused_matrix for crossbar in plan.crossbars],
        plan.units, plan.blocks, plan.rows,
    )
    hidden = plan.threshold is not None
    scratch = _Scratch()

    def matrix_fn(bits_u8: np.ndarray) -> np.ndarray:
        packed = matrix.pack(bits_u8)
        ones = matrix.ones_per_block(packed)
        plan.record(
            bits_u8, counts=ones.sum(axis=1),
            popcount_events=packed.codes.size,
        )
        acc = matrix.accumulate(packed)
        if hidden:
            out = scratch.get("out", acc[0].shape, np.float64)
        else:
            out = np.empty(acc[0].shape)
        np.multiply(acc[0], matrix.units[0], out=out, casting="unsafe")
        for k in range(1, matrix.num_blocks):
            out += acc[k] * matrix.units[k]
        plan.note_reads(bits_u8.shape[0])
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        bits = _as_uint8_bits(x, "SEI inputs")
        return _apply_packed(layer, bits, matrix_fn, scratch=scratch)

    return compute, False


def _packed_split(plan: LayerPlan):
    """Hidden split layer (§4.3 digital vote) in the integer domain.

    int16 accumulators against precomputed per-ones threshold tables,
    then a uint8 vote count — no float64 block sums ever materialise.

    The split output is already the 0/1 vote plane, so when the layer's
    own quantization threshold lies in ``[0, 1)`` the outer binarize is
    an identity on it (``0 > t`` is False, ``1 > t`` is True) and the
    compute emits uint8 selection bits directly (the layer is then
    prebinarized).
    """
    if plan.units is None or plan.threshold_mode:
        return FUSED_KERNELS["split"](plan)
    matrix = PackedMatrix(
        [crossbar.fused_matrix for crossbar in plan.crossbars],
        plan.units, plan.blocks, plan.rows,
    )
    decision = plan.split.decision
    fire_tables = _decision_tables(matrix, decision, plan.bias)
    vote_threshold = decision.vote_threshold
    emit_bits = plan.threshold is not None and 0.0 <= plan.threshold < 1.0
    out_dtype = np.uint8 if emit_bits else np.float64
    scratch = _Scratch()

    def matrix_fn(bits_u8: np.ndarray) -> np.ndarray:
        packed = matrix.pack(bits_u8)
        ones = matrix.ones_per_block(packed)
        plan.record(
            bits_u8, counts=ones.sum(axis=1),
            popcount_events=packed.codes.size,
        )
        n = bits_u8.shape[0]
        out = scratch.get("out", (n, matrix.cols), out_dtype)
        tile = min(_SPLIT_TILE, n)
        shape = (tile, matrix.cols)
        acc = scratch.get(
            "acc", (matrix.num_blocks, tile, matrix.cols), matrix.acc_dtype
        )
        counts = scratch.get("counts", shape, np.uint8)
        gathered = scratch.get("gathered", shape, matrix.acc_dtype)
        fired = scratch.get("fired", shape, np.bool_)
        for start in range(0, n, tile):
            stop = min(n, start + tile)
            m = stop - start
            matrix.accumulate_into(packed.codes[start:stop], acc[:, :m])
            counts[:m].fill(0)
            for k in range(matrix.num_blocks):
                np.take(
                    fire_tables[k], ones[start:stop, k], axis=0,
                    out=gathered[:m],
                )
                np.greater_equal(acc[k, :m], gathered[:m], out=fired[:m])
                counts[:m] += fired[:m]
            np.greater_equal(
                counts[:m], vote_threshold, out=out[start:stop],
                casting="unsafe",
            )
        plan.note_reads(n)
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        bits = _as_uint8_bits(x, "split-matrix inputs")
        return _apply_packed(
            layer, bits, matrix_fn, add_bias=False, scratch=scratch
        )

    return compute, emit_bits


def _packed_dac(plan: LayerPlan):
    """Integer-level lowering of the DAC-driven input layer (§3.2).

    The fused path quantizes the feature map to analog levels
    ``k/steps`` in float64 and matmuls them against the merged analog
    matrix; here the integer DAC codes ``k`` stay uint8 through the
    im2col unfold (8x less cache traffic) and the matmul runs over a
    cache-resident chunk buffer.  No integrality of the weights is
    needed — the same merged matrix drives both paths — so this
    lowering applies in every noise regime.

    When the plan has an integral unit (``merged == unit * N`` for
    integer ``N``: no programming variation), the matmul additionally
    drops to float32: DAC codes and ``N`` are integers, and as long as
    every partial sum stays below 2**24 each float32 operation is exact
    integer arithmetic — half the memory traffic and double the BLAS
    throughput with zero rounding inside the sum.  The layer bias is
    added chunkwise while the output slice is cache-hot.

    On a hidden layer, the exact-integer path also folds the layer's
    1-bit quantization (Equ. 4) into the kernel: the strict comparison
    ``unit/steps * M + bias_c > T`` is pre-solved for the minimal firing
    integer per column, and the compute emits the uint8 selection plane
    directly — the column currents never materialise in float64 at all
    (the layer is then prebinarized).
    """
    merged = plan.matrices()
    steps = float(2**plan.crossbars[0].dac.bits - 1)
    code_dtype = np.uint8 if steps <= np.iinfo(np.uint8).max else np.uint16
    merged_per_code = merged / steps
    cols = merged.shape[1]
    bias = plan.bias
    hidden = plan.threshold is not None
    scratch = _Scratch()

    int_matrix = None
    out_scale = None
    fire_min = None
    if plan.units is not None:
        unit = plan.units[0]
        n_rounded = np.rint(merged / unit)
        worst_sum = steps * np.abs(n_rounded).sum(axis=0).max(initial=0.0)
        if worst_sum < 2.0**24:
            int_matrix = np.ascontiguousarray(n_rounded, dtype=np.float32)
            out_scale = unit / steps
            if hidden:
                # Strict inequality, as in _decision_tables: the minimal
                # firing integer is floor(q) + 1 whether q is fractional
                # or exactly integral.
                bias_vec = np.asarray(bias, dtype=np.float64)
                q = (float(plan.threshold) - bias_vec) * steps / unit
                fire_min = np.clip(
                    np.floor(q) + 1.0, -(worst_sum + 1), worst_sum + 1
                ).astype(np.float32)

    # Matmul operands: exact float32 integers on the integral path, the
    # float64 analog level per code otherwise.
    weights = merged_per_code if int_matrix is None else int_matrix
    wide = np.float64 if int_matrix is None else np.float32

    def matrix_fn(codes: np.ndarray) -> np.ndarray:
        plan.record(codes)
        n = codes.shape[0]
        plan.note_reads(n)
        chunk = min(_DAC_CHUNK, n)
        buf = scratch.get("widen", (chunk, codes.shape[1]), wide)
        acc = scratch.get("acc", (chunk, cols), wide)
        if fire_min is not None:
            out = scratch.get("bits", (n, cols), np.uint8)
        elif hidden:
            out = scratch.get("out", (n, cols), np.float64)
        else:
            # Final-layer outputs escape to the caller: allocate fresh.
            out = np.empty((n, cols))
        for start in range(0, n, _DAC_CHUNK):
            stop = min(n, start + _DAC_CHUNK)
            m = stop - start
            np.copyto(buf[:m], codes[start:stop], casting="unsafe")
            if int_matrix is None:
                np.matmul(buf[:m], weights, out=out[start:stop])
            else:
                np.matmul(buf[:m], weights, out=acc[:m])
                if fire_min is not None:
                    # Exact integers on both sides of the comparison:
                    # the uint8 selection plane comes straight off the
                    # f32 accumulator, chunkwise while it is cache-hot.
                    np.greater_equal(
                        acc[:m], fire_min, out=out[start:stop],
                        casting="unsafe",
                    )
                    continue
                np.multiply(acc[:m], out_scale, out=out[start:stop])
            out[start:stop] += bias
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        # Quantize to integer codes before the unfold (elementwise and
        # exact, as in the fused path: zero maps to code 0 either way).
        codes = np.rint(np.clip(x, 0.0, 1.0) * steps).astype(code_dtype)
        return _apply_packed(
            layer, codes, matrix_fn, add_bias=False, scratch=scratch
        )

    return compute, fire_min is not None


#: The packed engine: integer kernels wherever the plan has integral
#: units, the fused kernel on every other layer (and in threshold mode).
PACKED_KERNELS = {
    "dac": _packed_dac,
    "merge": _packed_merge,
    "split": _packed_split,
}


def packed_pool_compute(trusted: bool = False):
    """OR-pooling on uint8 bit maps (max of 0/1 data is logical OR).

    Pooling a binarized feature map compares 0/1 values, so the window
    maximum runs on uint8 (8x less data through the cache than the
    float64 default).  Non-binary inputs (a pool that is not fed by a
    thresholded layer) fall back to the standard float path untouched.
    ``trusted`` skips the 0/1 validation scan when the assembly proved
    structurally that every upstream path binarizes first — and keeps
    the pooled plane uint8, since every packed (and fused) consumer
    accepts 0/1 planes of either dtype.
    """

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.uint8:
            if not trusted:
                try:
                    ensure_binary(x, "pool inputs")
                except ShapeError:
                    return F.maxpool2d_forward(x, layer.pool, layer.stride)
            x = x.astype(np.uint8)
        pooled = F.maxpool2d_forward(x, layer.pool, layer.stride)
        if trusted:
            return pooled
        return pooled.astype(np.float64)

    return compute


# -- assembly ------------------------------------------------------------------


def assemble_packed_network(
    network: Sequential,
    thresholds: Dict[int, float],
    config=None,
    decisions=None,
    partitions=None,
    rng: Optional[np.random.Generator] = None,
    engine=None,
) -> BinarizedNetwork:
    """Build a BinarizedNetwork on the packed popcount engine.

    The layers are planned exactly as for the fused engine (same RNG
    stream, same programmed cells, same per-read noise draws); each plan
    with integral units runs the packed integer kernel and every other
    plan the fused kernel, so the engine is exact in every noise regime
    and fast exactly where the packed formulation applies.
    """
    # Local import: repro.core.engines registers this module's builder,
    # so the top-level dependency can only point one way.
    from repro.core.engines import resolve_engine

    spec = resolve_engine(
        engine,
        hardware=config,
        allowed=("packed",),
        caller="assemble_packed_network",
    )
    temporal = spec.hardware.temporal
    if temporal is not None and temporal.enabled:
        raise ConfigurationError(
            "the packed engine captures its integer partial-sum tables "
            "from the cells at assemble time; temporal aging requires "
            "the fused or reference engine"
        )
    binarized = assemble_plans(
        network,
        thresholds,
        spec,
        PACKED_KERNELS,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
    )
    skip_binary_relus(binarized)
    # Pooling on 0/1 maps is the §3.1 logical OR: run it on uint8.  A
    # pool is "trusted" (no 0/1 validation scan) when the most recent
    # weighted layer upstream is thresholded — binarize() then wrote
    # exact 0.0/1.0, and ReLU/pool/flatten preserve that.
    binary = False
    for index, layer in enumerate(network.layers):
        if isinstance(layer, MaxPool2D):
            binarized.layer_computes[index] = packed_pool_compute(
                trusted=binary
            )
        elif isinstance(layer, (Conv2D, Dense)):
            binary = index in thresholds
    return binarized


def _build_packed(
    network: Sequential,
    thresholds: Dict[int, float],
    spec,
    *,
    decisions=None,
    partitions=None,
    calibration_images=None,
    rng=None,
) -> BinarizedNetwork:
    return assemble_packed_network(
        network,
        thresholds,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
        engine=spec,
    )
