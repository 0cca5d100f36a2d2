"""SEI: the SElected-by-Input crossbar structure (§4.1, Fig. 2c).

After 1-bit quantization, an input only decides *whether* a row
contributes (Equ. 4), so the input data moves to the transmission-gate
select port (:class:`repro.hw.peripherals.SEIDecoder`) and the row voltage
port becomes free to carry **common information of the row's weights**.
Equ. 6 shows what that buys: a weighted merge

    sum_{in_j = 1} sum_k A_k * w(k)_j  >  Thres - B

runs inside a *single* crossbar when each weight's K components (bit
slices, signs) occupy K cells in the same column and the k-th component's
row is driven with voltage ``A_k * v_com``.  For 8-bit weights on 4-bit
cells with signs, K = 4: A = (+16, +1, -16, -1) — the "shift and add" and
the subtraction happen in the analog current sum, so no ADC-based merging
is needed; the column current goes straight to a sense amplifier.

:class:`SEIMatrix` is the behavioural model: it performs exactly the cell
decomposition the hardware stores (per-slice nibbles on a 4-bit device,
optionally with programming noise) and computes the weighted analog sum.
Physical geometry (rows = K x logical rows, +1 threshold column when the
dynamic-threshold variant is used) is exposed for the mapper/cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw.array import DeviceArrayBase, TemporalConfig, make_array
from repro.hw.device import RRAMDevice
from repro.nn.layers import Layer

from repro.core.matrix_compute import (
    apply_matrix_fn,
    ensure_binary,
    layer_weight_matrix,
)

__all__ = ["SEIMatrix", "sei_layer_compute", "decompose_weights"]


def decompose_weights(
    weights: np.ndarray,
    weight_bits: int,
    cell_bits: int,
    signed: bool = True,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Split weights into per-cell slice magnitudes.

    Returns ``(slices, coefficients, scale)`` where

    * ``slices`` has shape ``(num_slices, rows, cols)`` with entries in
      [0, 1] — the normalised cell contents, most significant slice first,
      positive slices before negative ones;
    * ``coefficients`` are the extra-port weights ``A_k`` such that the
      represented matrix is ``scale * sum_k A_k * slices_k * cell_max``
      with ``cell_max = 2**cell_bits - 1``;
    * ``scale`` maps the integer representation back to weight units.

    With ``signed=False`` the weights must be non-negative and only the
    positive slice group is emitted (half the cells) — the layout the
    dynamic-threshold structure uses after its linear transformation.
    """
    if weight_bits % cell_bits != 0:
        raise ConfigurationError(
            f"weight bits ({weight_bits}) must be a multiple of cell bits "
            f"({cell_bits})"
        )
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ShapeError(f"weights must be 2D, got shape {weights.shape}")
    if not signed and (weights < 0).any():
        raise ConfigurationError(
            "signed=False requires non-negative weights; apply the "
            "linear transformation first"
        )

    num_slices = weight_bits // cell_bits
    cell_max = 2**cell_bits - 1
    int_max = 2**weight_bits - 1

    w_abs_max = float(np.abs(weights).max(initial=0.0))
    if w_abs_max == 0.0:
        w_abs_max = 1.0
    # Magnitudes quantized to `weight_bits` integers.
    magnitudes = np.rint(np.abs(weights) / w_abs_max * int_max).astype(np.int64)
    signs = np.sign(weights)

    slices: List[np.ndarray] = []
    coefficients: List[float] = []
    sign_groups = (1.0, -1.0) if signed else (1.0,)
    for sign_value in sign_groups:
        if signed:
            masked = np.where(signs == sign_value, magnitudes, 0)
        else:
            masked = magnitudes
        for k in range(num_slices - 1, -1, -1):
            nibble = (masked >> (k * cell_bits)) & cell_max
            slices.append(nibble / cell_max)
            coefficients.append(sign_value * float(2 ** (k * cell_bits)))

    scale = w_abs_max / int_max
    return np.stack(slices), np.asarray(coefficients), scale


@dataclass
class SEIMatrix:
    """One logical weight matrix implemented as a single SEI crossbar.

    Parameters
    ----------
    weights:
        Signed ``(rows, cols)`` weight matrix (already re-scaled by the
        quantization pipeline).
    device:
        RRAM device storing each slice; its ``bits`` is the cell precision.
    weight_bits:
        Weight precision to represent (8 in the paper).
    max_crossbar_size:
        Fabrication limit checked against the *physical* geometry.
    signed_inputs:
        True uses positive/negative extra-port voltages for the two sign
        groups (bipolar devices).  For unipolar devices use the
        dynamic-threshold structure in
        :mod:`repro.core.dynamic_threshold` instead.
    ir_drop_lambda:
        First-order IR-drop coefficient: column outputs attenuate by
        ``1 / (1 + lambda * physical_rows / max_crossbar_size)``.  Note
        that a plain SEI column compares against an *external* SA
        reference, so attenuation biases the decision; the Fig. 4
        dynamic-threshold structure generates the reference inside the
        same crossbar and is immune (see DynamicThresholdMatrix).
    rng:
        Source of programming noise (only used when the device is noisy).
    temporal:
        Optional :class:`~repro.hw.array.TemporalConfig`; when enabled
        the cells live on a :class:`~repro.hw.array.
        TemporalSimDeviceArray` and age between computes.
    """

    weights: np.ndarray
    device: Optional[RRAMDevice] = None
    weight_bits: int = 8
    max_crossbar_size: int = 512
    signed_inputs: bool = True
    ir_drop_lambda: float = 0.0
    rng: Optional[np.random.Generator] = None
    temporal: Optional[TemporalConfig] = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.device = self.device if self.device is not None else RRAMDevice()
        if not self.signed_inputs and (self.weights < 0).any():
            raise ConfigurationError(
                "negative weights need signed extra-port inputs; for "
                "unipolar devices use DynamicThresholdMatrix"
            )
        slices, coefficients, scale = decompose_weights(
            self.weights, self.weight_bits, self.device.bits
        )
        self._coefficients = coefficients
        self._scale = scale

        if self.physical_rows > self.max_crossbar_size:
            raise MappingError(
                f"SEI needs {self.physical_rows} physical rows for "
                f"{self.logical_rows} weights, exceeding the "
                f"{self.max_crossbar_size} limit; split the matrix "
                "(repro.core.splitting)"
            )
        if self.cols > self.max_crossbar_size:
            raise MappingError(
                f"{self.cols} columns exceed the {self.max_crossbar_size} "
                "crossbar limit"
            )

        # Program every slice through the device array: this applies the
        # 4-bit level quantization (slices are exact nibbles, so
        # quantization is lossless here) and programming variation if
        # configured.  The array programs a (K, rows, cols) stack one
        # leading slice at a time, consuming the RNG stream exactly like
        # the historical per-slice loop here.
        rng = self.rng if self.rng is not None else np.random.default_rng()
        self.array: DeviceArrayBase = make_array(
            self.device, temporal=self.temporal, rng=rng
        )
        self.array.program(slices, rng)

        # Fused-kernel state.  The K slices of a column all feed the same
        # analog current sum (Equ. 6), so the crossbar is equivalent to ONE
        # signed matrix; collapsing it turns compute() into a single BLAS
        # matmul.  With read noise the collapse must happen per read (the
        # noise is per-cell per-read); with an aging array it must happen
        # per *generation* — the cache below is keyed on the array's
        # generation counter, so a static array collapses exactly once.
        self._fused_cache: Optional[Tuple[int, np.ndarray]] = None

    # -- geometry ------------------------------------------------------------
    @property
    def logical_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @property
    def cells_per_weight(self) -> int:
        return len(self._coefficients)

    @property
    def physical_rows(self) -> int:
        """Crossbar rows: one per (weight, slice/sign component)."""
        return self.logical_rows * self.cells_per_weight

    @property
    def num_cells(self) -> int:
        return self.physical_rows * self.cols

    @property
    def ir_drop_attenuation(self) -> float:
        """Multiplicative output attenuation from wordline resistance."""
        if self.ir_drop_lambda < 0:
            raise ConfigurationError("ir_drop_lambda must be non-negative")
        return 1.0 / (
            1.0
            + self.ir_drop_lambda * self.physical_rows / self.max_crossbar_size
        )

    # -- behaviour ------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Integer-representation to weight-unit conversion factor."""
        return self._scale

    @property
    def coefficients(self) -> np.ndarray:
        """Extra-port merge coefficients ``A_k`` (Equ. 6)."""
        return self._coefficients

    @property
    def effective_weights(self) -> np.ndarray:
        """The signed matrix the cells *currently* represent.

        Reads the device array's present state, so on a temporal backend
        this reflects accumulated drift/retention/disturb.
        """
        cell_max = 2**self.device.bits - 1
        recon = np.zeros_like(self.weights)
        for coeff, cells in zip(self._coefficients, self.array.normalized):
            recon = recon + coeff * cells * cell_max
        return recon * self._scale

    @property
    def fused_matrix(self) -> Optional[np.ndarray]:
        """Pre-collapsed signed matrix (incl. IR drop), or None with read noise.

        When reads are noiseless the crossbar is a static linear map, and
        ``compute(bits) == bits @ fused_matrix`` exactly; composite
        structures (splitting, analog merge) stack these to fuse across
        crossbars.  The collapse is cached per device-array generation:
        static arrays collapse once, aging arrays re-collapse lazily
        whenever their state moved.
        """
        if self.device.read_sigma > 0:
            return None
        generation = self.array.generation
        cache = self._fused_cache
        if cache is None or cache[0] != generation:
            cache = (
                generation,
                self.effective_weights * self.ir_drop_attenuation,
            )
            self._fused_cache = cache
        return cache[1]

    def read_effective_weights(
        self, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """One noisy read of the whole crossbar, collapsed to a signed matrix.

        All ``K x rows x cols`` cells are read in a single vectorized call
        (one RNG draw covering every slice — the same stream a per-slice
        read loop would consume) and the slice currents are merged by the
        extra-port coefficients, exactly the analog sum of Equ. 6.
        """
        if self.device.read_sigma <= 0:
            return self.effective_weights
        rng = rng if rng is not None else np.random.default_rng()
        noisy = self.array.read_normalized(rng)
        cell_max = 2**self.device.bits - 1
        return (
            np.tensordot(self._coefficients, noisy, axes=1)
            * cell_max
            * self._scale
        )

    def compute(self, bits: np.ndarray) -> np.ndarray:
        """Analog column outputs for 1-bit inputs (the SA's input).

        ``bits`` is ``(n, logical_rows)`` (or 1D) with 0/1 entries; the
        read includes the device's read noise if configured.

        Fused kernel: the K weight slices collapse into one signed matrix
        (at ``__post_init__`` time when reads are noiseless, per read
        otherwise), so the whole crossbar pass is a single BLAS matmul
        instead of a Python loop over slices.  Seeded noise draws are
        bit-identical to the retained per-slice reference
        (:meth:`compute_reference`).
        """
        bits = self._check_bits(bits)
        fused = self.fused_matrix
        if fused is not None:
            out = bits @ fused
        else:
            rng = self.rng if self.rng is not None else np.random.default_rng()
            matrix = self.read_effective_weights(rng)
            out = (bits @ matrix) * self.ir_drop_attenuation
        self.array.note_reads(self._read_positions(bits))
        return out

    def compute_reference(self, bits: np.ndarray) -> np.ndarray:
        """The pre-fusion slice-loop implementation, kept verbatim.

        Serves as the equivalence oracle for :meth:`compute` and as the
        baseline side of ``benchmarks/bench_perf_engine.py``.  Given the
        same RNG state it draws exactly the same read noise as the fused
        kernel (slice-sequential draws and one stacked draw consume the
        PCG64 stream identically).
        """
        bits = np.asarray(bits, dtype=np.float64)
        if bits.shape[-1] != self.logical_rows:
            raise ShapeError(
                f"input has {bits.shape[-1]} bits, matrix has "
                f"{self.logical_rows} logical rows"
            )
        unique = np.unique(bits)
        if unique.size and not np.all(np.isin(unique, (0.0, 1.0))):
            raise ShapeError("SEI inputs must be 0/1 selection signals")

        rng = self.rng if self.rng is not None else np.random.default_rng()
        cell_max = 2**self.device.bits - 1
        span = self.device.g_max - self.device.g_min
        result = np.zeros(bits.shape[:-1] + (self.cols,))
        for coeff, cells in zip(self._coefficients, self.array.normalized):
            if self.device.read_sigma > 0:
                conductance = self.device.read(
                    self.device.g_min + cells * span, rng
                )
                cells = self.device.conductance_to_normalized(conductance)
            result = result + coeff * (bits @ cells) * cell_max
        out = result * self._scale * self.ir_drop_attenuation
        self.array.note_reads(self._read_positions(bits))
        return out

    @staticmethod
    def _read_positions(bits: np.ndarray) -> int:
        """MVM positions in a batch: one read event per input vector."""
        return int(np.prod(bits.shape[:-1], dtype=np.int64))

    def _check_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.float64)
        if bits.shape[-1] != self.logical_rows:
            raise ShapeError(
                f"input has {bits.shape[-1]} bits, matrix has "
                f"{self.logical_rows} logical rows"
            )
        ensure_binary(bits, "SEI inputs")
        return bits


def sei_layer_compute(
    layer: Layer,
    device: Optional[RRAMDevice] = None,
    weight_bits: int = 8,
    max_crossbar_size: int = 512,
    rng: Optional[np.random.Generator] = None,
    temporal: Optional[TemporalConfig] = None,
):
    """Build a BinarizedNetwork layer-compute hook backed by an SEIMatrix.

    Raises :class:`MappingError` if the layer needs splitting; use
    :func:`repro.core.splitting.split_layer_compute` in that case.  The
    hook exposes its backing structure as ``compute.matrix`` (and the
    live device array as ``compute.array``) so aging campaigns can
    advance the device clock between inference passes.
    """
    matrix = SEIMatrix(
        layer_weight_matrix(layer),
        device=device,
        weight_bits=weight_bits,
        max_crossbar_size=max_crossbar_size,
        rng=rng,
        temporal=temporal,
    )

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(inner_layer, x, matrix.compute)

    compute.matrix = matrix
    compute.array = matrix.array
    return compute
