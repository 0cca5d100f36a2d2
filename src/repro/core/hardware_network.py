"""Full-chip hardware assembly: every layer through crossbar models.

The accuracy experiments elsewhere swap hardware models in layer by
layer.  This module assembles the *whole* inference path the way the
paper's SPICE emulation does (§5.1: "an 4-bit RRAM device model ... is
used to build up the SPICE-level crossbar array"):

* :func:`plan_layers` compiles each weighted layer, once, to one
  :class:`LayerPlan` — the hardware shape it takes (the DAC-driven input
  layer of §3.2, input-switched SEI crossbars whose block currents merge
  in analog, or §4.3 split blocks with a digital vote), its programmed
  4-bit crossbars (optional programming variation / read noise / IR
  drop), thresholds, pricer and activity recorder.
* An engine is a table from plan kind to kernel (:data:`FUSED_KERNELS`,
  :data:`REFERENCE_KERNELS`, ``repro.core.packed.PACKED_KERNELS``);
  :func:`assemble_plans` installs one kernel per plan, so every engine
  runs the same programmed cells and the same RNG streams.
* :func:`adc_layer_compute` / :func:`assemble_adc_network` — the
  functional model of the traditional designs: activations quantized by
  the DACs, weights on bit-sliced positive/negative crossbars, column
  currents digitised by ADCs and merged digitally.  Used to check that
  the baseline's accuracy matches the float network (the premise of
  Table 5's error-rate column).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.hw.array import DeviceArrayBase, TemporalConfig, make_array
from repro.hw.device import RRAMDevice
from repro.hw.peripherals import ADC, DAC
from repro.hw.tech import TechnologyModel
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D, ReLU
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import EstimatorPolicy, SkipModel, SkipStats
from repro.core.homogenize import Partition, homogenize, natural_partition
from repro.core.matrix_compute import (
    apply_matrix_fn,
    ensure_binary,
    layer_bias,
    layer_weight_matrix,
)
from repro.core.sei import SEIMatrix, decompose_weights
from repro.core.splitting import (
    SplitDecision,
    SplitMatrix,
    contiguous_spans,
    required_blocks,
)

__all__ = [
    "HardwareConfig",
    "HardwareSplitMatrix",
    "LayerPlan",
    "plan_layers",
    "assemble_plans",
    "assemble_sei_network",
    "FUSED_KERNELS",
    "REFERENCE_KERNELS",
    "adc_layer_compute",
    "assemble_adc_network",
]

#: Integrality tolerance: |matrix/unit - round(matrix/unit)| above this
#: means the cells do not sit on the integer nibble grid (programming
#: variation) and the layer has no integral unit.
_INT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class HardwareConfig:
    """Device/fabric parameters for full-hardware assembly."""

    device: RRAMDevice = RRAMDevice(bits=4)
    weight_bits: int = 8
    max_crossbar_size: int = 512
    ir_drop_lambda: float = 0.0
    #: Partition choice for split layers: 'natural' or 'homogenize'.
    partition_method: str = "homogenize"
    homogenize_iterations: int = 2000
    seed: int = 0
    #: Optional aging behaviour; None (or all-off) keeps the cells on
    #: static SimDeviceArrays — bit-identical to historical behaviour.
    temporal: Optional[TemporalConfig] = None

    def __post_init__(self) -> None:
        if self.partition_method not in ("natural", "homogenize"):
            raise ConfigurationError(
                "partition_method must be 'natural' or 'homogenize', got "
                f"{self.partition_method!r}"
            )


def _collapse_cache(
    arrays: Sequence[DeviceArrayBase],
    collapse: Callable[[], np.ndarray],
    static: bool,
) -> Callable[[], np.ndarray]:
    """``collapse()`` cached per generation of the device ``arrays``.

    Static arrays collapse exactly once; aging arrays re-collapse lazily
    whenever a generation counter moved.  Noisy reads (``static=False``)
    draw fresh cells on every call, so nothing is cached.
    """
    if not static:
        return collapse
    cache: list = [None]

    def matrices() -> np.ndarray:
        generations = tuple(array.generation for array in arrays)
        if cache[0] is None or cache[0][0] != generations:
            cache[0] = (generations, collapse())
        return cache[0][1]

    return matrices


def _sei_crossbar(
    matrix: np.ndarray, config: HardwareConfig, rng: np.random.Generator
) -> SEIMatrix:
    """One SEI crossbar holding ``matrix``, programmed from ``rng``."""
    return SEIMatrix(
        matrix,
        device=config.device,
        weight_bits=config.weight_bits,
        max_crossbar_size=config.max_crossbar_size,
        ir_drop_lambda=config.ir_drop_lambda,
        rng=rng,
        temporal=config.temporal,
    )


def _read_crossbar(crossbar: SEIMatrix) -> np.ndarray:
    """One crossbar's collapsed signed matrix, IR drop included.

    The static cells when reads are noiseless; otherwise one vectorized
    noisy read covering every slice (stream-identical to the per-slice
    reference loop).
    """
    fused = crossbar.fused_matrix
    if fused is not None:
        return fused
    return (
        crossbar.read_effective_weights(crossbar.rng)
        * crossbar.ir_drop_attenuation
    )


def _concatenated_reads(crossbars: Sequence[SEIMatrix]) -> np.ndarray:
    """The block crossbars' matrices stacked in block order (analog merge)."""
    return np.concatenate(
        [_read_crossbar(crossbar) for crossbar in crossbars], axis=0
    )


def _integral_unit(matrix: np.ndarray, unit: float) -> Optional[float]:
    """``unit`` if ``matrix == unit * N`` for an integer matrix ``N``.

    Programming variation moves cells off the nibble grid (large
    residual); stuck cells land on nibble 0 or 15 and stay integral.
    """
    if unit <= 0 or not np.isfinite(unit):
        return None
    quotient = matrix / unit
    residual = np.abs(quotient - np.rint(quotient)).max(initial=0.0)
    return unit if residual <= _INT_RESIDUAL_TOL else None


class DacCrossbar:
    """The input layer's bit-sliced crossbars, merged in analog (§3.2).

    The input picture passes through 8-bit DACs onto the rows; the
    positive/negative slices are programmed through one device array and
    their output currents combine by scaled current summing before the
    sense amplifiers — no ADC anywhere.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        config: HardwareConfig,
        rng: np.random.Generator,
    ) -> None:
        slices, self.coefficients, self.scale = decompose_weights(
            matrix, config.weight_bits, config.device.bits
        )
        self.array = make_array(
            config.device, temporal=config.temporal, rng=rng
        )
        self.array.program(slices, rng)
        self.dac = DAC(bits=8)
        self.cell_max = 2**config.device.bits - 1
        self.cells_per_weight = len(self.coefficients)

    def collapse(self) -> np.ndarray:
        """The slices merged into one signed matrix (the analog sum)."""
        return (
            np.tensordot(self.coefficients, self.array.normalized, axes=1)
            * self.cell_max
            * self.scale
        )

    def compute_reference(self, driven: np.ndarray) -> np.ndarray:
        """The pre-fusion per-slice loop (equivalence oracle)."""
        total = np.zeros(driven.shape[:-1] + (self.array.normalized.shape[-1],))
        for coeff, cells in zip(self.coefficients, self.array.normalized):
            total = total + coeff * (driven @ cells) * self.cell_max
        return total * self.scale


class HardwareSplitMatrix(SplitMatrix):
    """A split matrix whose blocks are real SEI crossbars.

    Replaces the exact partial sums of :class:`SplitMatrix` with the
    block crossbars' collapsed matrices, so 4-bit cell quantization,
    programming variation, read noise and IR drop all reach the block
    decisions.  Noiseless blocks stack into the padded ``(K, H, cols)``
    layout once per device-array generation; noisy reads rebuild it
    from one vectorized read per block on every call.
    """

    def __init__(
        self,
        weights: np.ndarray,
        partition: Partition,
        decision: SplitDecision,
        config: HardwareConfig,
        bias: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(weights, partition, decision, bias=bias)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.crossbars = [
            _sei_crossbar(self.weights[block], config, rng)
            for block in self.blocks
        ]
        self.matrices = _collapse_cache(
            [crossbar.array for crossbar in self.crossbars],
            self._padded_cells,
            static=config.device.read_sigma <= 0,
        )

    def _padded_cells(self) -> np.ndarray:
        cells = np.zeros_like(self._padded_weights)
        for k, (block, crossbar) in enumerate(zip(self.blocks, self.crossbars)):
            cells[k, : len(block)] = _read_crossbar(crossbar)
        return cells

    def _block_matrices(self) -> np.ndarray:
        return self.matrices()

    def _block_reference(self, k: int, rows: np.ndarray) -> np.ndarray:
        # The pre-fusion crossbar loop (equivalence oracle).
        return self.crossbars[k].compute_reference(rows)


# -- the layer plan --------------------------------------------------------------


@dataclass(eq=False)
class LayerPlan:
    """How one weighted layer compiled to hardware; every engine reads it.

    ``kind`` is the hardware shape: ``'dac'`` (the DAC-driven input
    layer), ``'merge'`` (SEI block crossbars whose currents sum in
    analog before one sense-amp bank; an unsplit layer is a one-block
    merge) or ``'split'`` (§4.3 blocks deciding separately, merged by the
    digital vote of ``split.decision``).  The plan holds references to
    the live crossbars, never copies.

    ``blocks`` are the logical-row indices of each block and ``spans``
    their ``(start, stop)`` ranges when every block is contiguous (else
    None).  ``bias`` is the layer bias (the per-block bias on split
    layers).  ``matrices()`` returns the collapsed cells in the kind's
    layout — ``(rows, cols)`` for dac, ``(rows, cols)`` in block order
    for merge, the padded ``(K, H, cols)`` stack for split — cached per
    device-array generation.  ``units`` holds each block's integral unit
    (``block matrix == unit * N`` for integer ``N``), or None when any
    block is off the nibble grid, reads are noisy or the cells age.
    """

    index: int
    kind: str
    rows: int
    cols: int
    blocks: List[np.ndarray]
    spans: Optional[List[Tuple[int, int]]]
    crossbars: list
    matrices: Callable[[], np.ndarray]
    bias: np.ndarray
    threshold: Optional[float] = None
    split: Optional[HardwareSplitMatrix] = None
    pricer: Optional[SkipModel] = None
    units: Optional[Tuple[float, ...]] = None
    noise_draws: int = 0

    @property
    def arrays(self) -> List[DeviceArrayBase]:
        """The live device arrays behind the crossbars, in block order."""
        return [crossbar.array for crossbar in self.crossbars]

    @property
    def cells_per_weight(self) -> int:
        return self.crossbars[0].cells_per_weight

    @property
    def threshold_mode(self) -> bool:
        """Whether the pricer's modelled early bits are the layer output."""
        return self.pricer is not None and not self.pricer.exact

    def note_reads(self, n: int) -> None:
        """Count one read of every crossbar per position."""
        for array in self.arrays:
            array.note_reads(n)

    def record(
        self,
        bits: np.ndarray,
        counts: Optional[np.ndarray] = None,
        popcount_events: int = 0,
        skip: Optional[SkipStats] = None,
    ) -> None:
        """Count one crossbar call under ``hw/layer{index}``.

        ``bits`` are the ``(n, rows)`` values on the rows (DAC levels on
        the input layer); ``counts`` their popcounted active-row totals,
        when the kernel has them.  The pricer supplies the modelled skip
        counters unless ``skip`` already holds them.  One ``None`` check
        while no recorder is active; the statistics never touch the RNG.
        """
        rec = obs.active()
        if rec is None:
            return
        from repro.obs.power import record_mvm_batch

        n = len(bits)
        if self.kind == "dac":
            # DACs convert every row each cycle whatever its value, so
            # the power model shows no input-switched saving here.
            counts = np.full(n, self.rows)
        if skip is None and self.pricer is not None:
            skip = self.pricer.price(bits)[1]
        if skip is not None:
            sa_events = skip.sa_events
        elif self.kind == "split":
            sa_events = None
        else:
            # Merged currents share one sense-amp bank.
            sa_events = n * self.cols
        skip = skip if skip is not None else SkipStats()
        record_mvm_batch(
            rec.metrics,
            self.index,
            None if counts is not None else bits,
            self.cols,
            rows=self.rows,
            active_counts=counts,
            blocks=len(self.blocks),
            cells_per_weight=self.cells_per_weight,
            sa_events=sa_events,
            noise_draws=self.noise_draws,
            digital_merge=self.kind == "split",
            popcount_events=popcount_events,
            skipped_rows=skip.skipped_rows,
            skipped_slots=skip.skipped_slots,
            est_positions=skip.est_positions,
            est_decided=skip.est_decided,
        )


def plan_layers(
    network: Sequential,
    thresholds: Dict[int, float],
    config: HardwareConfig,
    estimator: EstimatorPolicy,
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[LayerPlan]:
    """Compile every weighted layer to one :class:`LayerPlan`, in order.

    The first weighted layer stays DAC-driven (§3.2).  A layer that fits
    one crossbar is a one-block merge; an oversized hidden layer splits
    into §4.3 blocks (``decisions``/``partitions`` override the default
    ``T/K`` majority vote and the config's partition method); the final
    classifier merges its blocks in analog (current summing into the WTA
    readout).  Crossbars program in layer order from ``rng``.
    """
    decisions = decisions if decisions is not None else {}
    partitions = partitions if partitions is not None else {}
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    static = config.device.read_sigma <= 0
    aging = config.temporal is not None and config.temporal.enabled
    weighted = [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ]
    plans = []
    for index in weighted:
        layer = network.layers[index]
        matrix = layer_weight_matrix(layer)
        rows, cols = matrix.shape
        threshold = thresholds.get(index)
        common = dict(index=index, rows=rows, cols=cols, threshold=threshold)

        if index == weighted[0]:
            crossbar = DacCrossbar(matrix, config, rng)
            matrices = _collapse_cache(
                [crossbar.array], crossbar.collapse, static=True
            )
            unit = None if aging else _integral_unit(
                matrices(), crossbar.scale
            )
            plans.append(
                LayerPlan(
                    kind="dac",
                    blocks=[np.arange(rows)],
                    spans=[(0, rows)],
                    crossbars=[crossbar],
                    matrices=matrices,
                    bias=layer_bias(layer),
                    units=None if unit is None else (unit,),
                    **common,
                )
            )
            continue

        cells_per_weight = 2 * (config.weight_bits // config.device.bits)
        num_blocks = required_blocks(
            rows, config.max_crossbar_size, cells_per_weight
        )
        partition = partitions.get(index)
        if num_blocks > 1 and partition is None:
            if config.partition_method == "homogenize":
                partition = homogenize(
                    matrix,
                    num_blocks,
                    iterations=config.homogenize_iterations,
                    seed=config.seed,
                )
            else:
                partition = natural_partition(rows, num_blocks)
        blocks = (
            [np.arange(rows)] if num_blocks <= 1 else partition.blocks()
        )

        split = None
        if num_blocks > 1 and index != weighted[-1]:
            decision = decisions.get(
                index,
                SplitDecision(
                    block_threshold=thresholds[index] / num_blocks,
                    vote_threshold=max(1, (num_blocks + 1) // 2),
                ),
            )
            split = HardwareSplitMatrix(
                matrix, partition, decision, config,
                bias=layer_bias(layer), rng=rng,
            )
            crossbars, matrices, bias = (
                split.crossbars, split.matrices, split.block_bias
            )
        else:
            crossbars = [
                _sei_crossbar(matrix[block], config, rng) for block in blocks
            ]
            matrices = _collapse_cache(
                [crossbar.array for crossbar in crossbars],
                partial(_concatenated_reads, crossbars),
                static=static,
            )
            bias = layer_bias(layer)

        pricer = None
        # Exact/threshold pricing applies to static cells, on split
        # layers and on hidden merges whose T lies in [0, 1), where the
        # outer binarize maps an emitted 0/1 plane to itself.
        if estimator.enabled and static and (
            split is not None
            or (threshold is not None and 0.0 <= threshold < 1.0)
        ):
            pricer = SkipModel(
                [crossbar.fused_matrix for crossbar in crossbars],
                blocks,
                bias,
                split.decision.thresholds_for if split else float(threshold),
                split.decision.vote_threshold if split else 1,
                estimator,
            )
        units = None
        if static and not aging:
            found = tuple(
                _integral_unit(
                    crossbar.fused_matrix,
                    float(crossbar.scale) * float(crossbar.ir_drop_attenuation),
                )
                for crossbar in crossbars
            )
            units = None if None in found else found
        plans.append(
            LayerPlan(
                kind="merge" if split is None else "split",
                blocks=blocks,
                spans=contiguous_spans(blocks),
                crossbars=crossbars,
                matrices=matrices,
                bias=bias,
                split=split,
                pricer=pricer,
                units=units,
                noise_draws=0 if static else sum(
                    crossbar.num_cells for crossbar in crossbars
                ),
                **common,
            )
        )
    return plans


#: A kernel compiles one plan into the layer's compute; the flag says
#: whether that compute already emits ``binarize(output, threshold)``
#: (see :attr:`BinarizedNetwork.prebinarized`).
Kernel = Callable[[LayerPlan], Tuple[Callable, bool]]


def assemble_plans(
    network: Sequential,
    thresholds: Dict[int, float],
    spec,
    kernels: Dict[str, Kernel],
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    rng: Optional[np.random.Generator] = None,
) -> BinarizedNetwork:
    """Plan every weighted layer once and install ``kernels[plan.kind]``.

    The result carries ``device_arrays``: every live device array, keyed
    ``layer<i>`` (one crossbar) or ``layer<i>/block<k>`` — the registry
    the serving layer ages, health-checks and re-tunes through.
    """
    config = spec.hardware
    if spec.estimator.enabled and (
        config.temporal is not None and config.temporal.enabled
    ):
        raise ConfigurationError(
            "the runtime activation estimator prices skips against "
            "static cells; temporal aging would make them stale — "
            "disable one of the two"
        )
    binarized = BinarizedNetwork(network, dict(thresholds))
    binarized.device_arrays = {}
    folded = set()
    for plan in plan_layers(
        network, thresholds, config, spec.estimator,
        decisions, partitions, rng,
    ):
        compute, prebinarized = kernels[plan.kind](plan)
        binarized.layer_computes[plan.index] = compute
        if prebinarized:
            folded.add(plan.index)
        for k, array in enumerate(plan.arrays):
            name = f"layer{plan.index}"
            if len(plan.arrays) > 1:
                name += f"/block{k}"
            binarized.device_arrays[name] = array
    binarized.prebinarized = frozenset(folded)
    return binarized


def assemble_sei_network(
    network: Sequential,
    thresholds: Dict[int, float],
    config: Optional[HardwareConfig] = None,
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    rng: Optional[np.random.Generator] = None,
    engine=None,
) -> BinarizedNetwork:
    """Build a BinarizedNetwork whose every layer runs on SEI hardware.

    ``decisions``/``partitions`` override the split configuration per
    layer index (pass the calibrated ones from
    :func:`repro.core.pipeline.build_split_network`); see
    :func:`plan_layers` for the defaults.

    ``engine`` is a :class:`repro.core.engines.EngineSpec` (in which
    case ``config`` must be left unset — the hardware options live on
    the spec): ``'fused'`` (default) collapses the bit-sliced crossbars
    of each layer into stacked matmuls; ``'reference'`` keeps the
    pre-fusion per-slice / per-block loops — numerically equivalent
    (identical noise streams, partial sums re-associated), retained as
    the equivalence oracle and perf-benchmark baseline.
    """
    # Local import: repro.core.engines registers its builders on top of
    # this module, so the dependency cannot also point the other way at
    # import time.
    from repro.core.engines import resolve_engine

    spec = resolve_engine(
        engine,
        hardware=config,
        allowed=("fused", "reference"),
        caller="assemble_sei_network",
    )
    reference = spec.name == "reference"
    if reference and spec.estimator.enabled:
        raise ConfigurationError(
            "the 'reference' engine is the equivalence oracle and "
            "runs estimator-free; use the fused or packed engine"
        )
    binarized = assemble_plans(
        network,
        thresholds,
        spec,
        REFERENCE_KERNELS if reference else FUSED_KERNELS,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
    )
    if reference:
        # The pre-fusion forward pass always ran the window-materialising
        # argmax pooling; pin it so the reference engine measures the true
        # pre-fusion inference cost (values are identical).
        for index, layer in enumerate(network.layers):
            if isinstance(layer, MaxPool2D):
                binarized.layer_computes[index] = _reference_pool_compute
    else:
        skip_binary_relus(binarized)
    return binarized


def skip_binary_relus(binarized: BinarizedNetwork) -> None:
    """Install identity computes on ReLUs fed by a thresholded layer.

    Such a ReLU only ever sees 0/1 data, on which ``max(x, 0)`` is an
    exact identity — the pass is skipped.
    """
    for index, layer in enumerate(binarized.network.layers):
        if isinstance(layer, ReLU) and index - 1 in binarized.thresholds:
            binarized.layer_computes[index] = _identity_compute


def _reference_pool_compute(layer: Layer, x: np.ndarray) -> np.ndarray:
    out, _ = F.maxpool2d(x, layer.pool, layer.stride)
    return out


def _identity_compute(layer: Layer, x: np.ndarray) -> np.ndarray:
    return x


# -- fused kernels -----------------------------------------------------------------


def _selection_compute(matrix_fn, what: str, **apply):
    """A layer compute over 0/1 selection signals.

    The signals are validated once on the compact input, before im2col
    duplicates them kernel^2-fold; ``apply`` goes to
    :func:`~repro.core.matrix_compute.apply_matrix_fn`.
    """

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        ensure_binary(x, what)
        return apply_matrix_fn(layer, x, matrix_fn, **apply)

    return compute


def _threshold_kernel(plan: LayerPlan):
    """Threshold-mode layer: the pricer's modelled early bits are its output."""

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        out, stats = plan.pricer.price(bits)
        plan.note_reads(bits.shape[0])
        plan.record(bits, skip=stats)
        return out

    compute = _selection_compute(
        matrix_fn, "SEI inputs", add_bias=False, contiguous=False
    )
    return compute, False


def _fused_dac(plan: LayerPlan):
    dac = plan.crossbars[0].dac

    def matrix_fn(driven: np.ndarray) -> np.ndarray:
        plan.record(driven)
        out = driven @ plan.matrices()
        plan.note_reads(driven.shape[0])
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        # The DACs sit on the feature-map values; quantizing before the
        # im2col unfold touches each value once instead of once per
        # receptive field it lands in.  Bit-identical: quantization is
        # elementwise, the unfold is a gather, and zero padding maps to
        # the zero DAC level either way.
        driven = dac.quantize(np.clip(x, 0.0, 1.0))
        return apply_matrix_fn(layer, driven, matrix_fn, contiguous=False)

    return compute, False


def _fused_merge(plan: LayerPlan):
    if plan.threshold_mode:
        return _threshold_kernel(plan)
    # The merge is a straight current sum over blocks, so the block
    # crossbars concatenate into ONE matrix indexed by the permuted
    # input order: a single matmul replaces the per-block loop.  A
    # one-block merge reads its rows in place.
    order = None if len(plan.blocks) == 1 else np.concatenate(plan.blocks)

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        plan.record(bits)
        # The gather keeps the plane's dtype (a uint8 plane from a packed
        # pool multiplies as such); in-place rows multiply as float64.
        if order is None:
            out = np.asarray(bits, dtype=np.float64) @ plan.matrices()
        else:
            out = bits[:, order] @ plan.matrices()
        plan.note_reads(bits.shape[0])
        return out

    # A hidden layer's output feeds straight into binarization, which
    # writes a fresh buffer, so the folded view is never materialised.
    compute = _selection_compute(
        matrix_fn, "SEI inputs", contiguous=plan.threshold is None
    )
    return compute, False


def _fused_split(plan: LayerPlan):
    if plan.threshold_mode:
        return _threshold_kernel(plan)
    split = plan.split
    vote = split.decision.vote_threshold

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        plan.record(bits)
        counts = split.block_bits(bits).sum(axis=1)
        plan.note_reads(bits.shape[0])
        return (counts >= vote).astype(np.float64)

    compute = _selection_compute(
        matrix_fn if plan.pricer is None else _deferred_blocks(plan),
        "split-matrix inputs",
        add_bias=False,
        contiguous=False,
    )
    return compute, False


def _deferred_blocks(plan: LayerPlan):
    """Exact mode's split schedule: the deferred-block vote.

    Blocks run with the *same* gathered layout + strided matmuls as the
    off path (bit-identical arithmetic by construction), but each
    block's GEMM only sees the positions whose §4.3 vote is still live —
    once a position's vote is settled (counts >= V, or mathematically
    unreachable), its remaining block crossbars are never driven.  The
    skip counters come from the pricer.

    Natural (contiguous-span) partitions need no gather at all: a
    block's column slice of the batch feeds BLAS as-is (bitwise
    identical to the gathered layout — trailing padded zero rows never
    change a partial sum, and 0/1 counts are exact in any order).
    Scattered partitions keep the off path's flat gather.
    """
    split = plan.split
    spans = plan.spans
    vote = split.decision.vote_threshold
    num_blocks = split.num_blocks
    cols = split.cols

    def blocks_fn(bits: np.ndarray) -> np.ndarray:
        n = bits.shape[0]
        matrices = plan.matrices()
        if spans is None:
            gathered = split._gathered(bits)
            ones_blk = gathered.sum(axis=2)
        else:
            gathered = bits
            ones_blk = np.stack(
                [bits[:, a:b].sum(axis=1) for a, b in spans], axis=1
            )
        counts = np.zeros((n, cols), dtype=np.uint8)
        alive = np.arange(n)
        g_al = gathered
        ones_al = ones_blk
        counts_al = counts
        dec_al = np.zeros((n, cols), dtype=bool)
        for k in range(num_blocks):
            if alive.size == 0:
                break
            plan.arrays[k].note_reads(alive.size)
            if spans is None:
                operand = g_al[:, k, :]
                mat = matrices[k]
            else:
                first, last = spans[k]
                operand = g_al[:, first:last]
                mat = matrices[k][: last - first]
            sums = operand @ mat
            sums += split.block_bias
            thr = split.decision.thresholds_for(ones_al[:, k])[:, None]
            np.add(counts_al, sums > thr, out=counts_al, casting="unsafe")
            remaining = num_blocks - 1 - k
            # A position can only retire once a vote is reachable
            # (k+1 >= vote) or unreachable (remaining < vote) —
            # skip the decision planes on blocks where neither holds.
            if not remaining or (k + 1 < vote and remaining >= vote):
                continue
            dec_al = (
                dec_al
                | (counts_al >= vote)
                | (counts_al + remaining < vote)
            )
            done = dec_al.all(axis=1)
            if done.any():
                counts[alive[done]] = counts_al[done]
                keep = ~done
                alive = alive[keep]
                g_al = g_al[keep]
                ones_al = ones_al[keep]
                counts_al = counts_al[keep]
                dec_al = dec_al[keep]
        if alive.size:
            counts[alive] = counts_al
        plan.record(bits)
        return (counts >= vote).astype(np.float64)

    return blocks_fn


#: The fused engine: collapsed float64 matmuls, one per layer.
FUSED_KERNELS: Dict[str, Kernel] = {
    "dac": _fused_dac,
    "merge": _fused_merge,
    "split": _fused_split,
}


# -- reference kernels (the equivalence oracle) ------------------------------------


def _reference_dac(plan: LayerPlan):
    crossbar = plan.crossbars[0]

    def matrix_fn(x: np.ndarray) -> np.ndarray:
        driven = crossbar.dac.quantize(np.clip(x, 0.0, 1.0))
        plan.record(driven)
        out = crossbar.compute_reference(driven)
        plan.note_reads(driven.shape[0])
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(layer, x, matrix_fn)

    return compute, False


def _reference_merge(plan: LayerPlan):
    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        plan.record(bits)
        total = None
        for block, crossbar in zip(plan.blocks, plan.crossbars):
            part = crossbar.compute_reference(bits[:, block])
            total = part if total is None else total + part
        return total

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(layer, x, matrix_fn)

    return compute, False


def _reference_split(plan: LayerPlan):
    split = plan.split

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        plan.record(bits)
        bits = split._as_rows(bits)
        sums = split.block_sums_reference(bits)
        ones = np.stack(
            [bits[:, block].sum(axis=1) for block in split.blocks], axis=1
        )
        thresholds = split.decision.thresholds_for(ones)
        fired = (sums > thresholds[:, :, None]).astype(np.float64)
        counts = fired.sum(axis=1)
        return (counts >= split.decision.vote_threshold).astype(np.float64)

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(layer, x, matrix_fn, add_bias=False)

    return compute, False


#: The reference engine: the pre-fusion per-slice / per-block loops.
REFERENCE_KERNELS: Dict[str, Kernel] = {
    "dac": _reference_dac,
    "merge": _reference_merge,
    "split": _reference_split,
}


# -- the traditional (ADC) designs, functionally --------------------------------


def adc_layer_compute(
    layer: Layer,
    tech: Optional[TechnologyModel] = None,
    device: Optional[RRAMDevice] = None,
    data_bits: int = 8,
    calibration: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Functional model of one DAC+crossbar+ADC layer (Fig. 2a/b).

    Activations pass through ``data_bits`` DACs; each weight bit-slice
    lives on a positive and a negative crossbar; every crossbar column is
    digitised by an 8-bit ADC before the digital shift/add/subtract
    merge.

    ADC full scale: designs calibrate each converter's range to the
    currents it actually sees, not the theoretical worst case — sparse
    layers would otherwise waste most of their codes.  Pass
    ``calibration`` (example crossbar input rows, ``(n, rows)``) to set
    the per-slice range from the observed maxima (with 25% headroom);
    without it the range defaults to the all-inputs-high worst case.
    """
    tech = tech if tech is not None else TechnologyModel()
    device = device if device is not None else RRAMDevice(bits=tech.cell_bits)
    rng = rng if rng is not None else np.random.default_rng()

    matrix = layer_weight_matrix(layer)
    slices, coefficients, scale = decompose_weights(
        matrix, tech.weight_bits, device.bits
    )
    # Program each slice crossbar through a (static) device array.
    array = make_array(device, rng=rng)
    array.program(slices, rng)
    programmed = array.normalized
    dac = DAC(bits=data_bits)
    adc = ADC(bits=8)
    cell_max = 2**device.bits - 1

    if calibration is not None:
        driven = dac.quantize(np.clip(np.asarray(calibration), 0.0, 1.0))
        full_scales = [
            max(float(((driven @ cells) * cell_max).max()) * 1.25, 1e-12)
            for cells in programmed
        ]
    else:
        # Worst case: all inputs at 1 on the largest column.
        full_scales = [
            max(float(cells.sum(axis=0).max()) * cell_max, 1e-12)
            for cells in programmed
        ]

    def matrix_fn(x: np.ndarray) -> np.ndarray:
        driven = dac.quantize(np.clip(x, 0.0, 1.0))
        out = np.zeros(x.shape[:-1] + (matrix.shape[1],))
        for coeff, cells, full_scale in zip(
            coefficients, programmed, full_scales
        ):
            currents = (driven @ cells) * cell_max
            digitised = adc.quantize(currents, full_scale)
            out = out + coeff * digitised
        array.note_reads(driven.shape[0] if driven.ndim > 1 else 1)
        return out * scale

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(inner_layer, x, matrix_fn)

    compute.array = array
    return compute


def assemble_adc_network(
    network: Sequential,
    thresholds: Optional[Dict[int, float]] = None,
    tech: Optional[TechnologyModel] = None,
    device: Optional[RRAMDevice] = None,
    data_bits: int = 8,
    calibration_images: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> BinarizedNetwork:
    """Every weighted layer through the DAC+ADC functional model.

    With ``thresholds=None`` the network runs at full 8-bit data
    precision (the Table 5 baseline, which should match the float
    network's predictions); passing Algorithm 1 thresholds gives the
    "1-bit-Input + ADC" middle design.

    ``calibration_images`` (a small sample of inputs) sets each layer's
    ADC ranges from observed currents — important for sparse 1-bit
    layers, where worst-case ranges would waste the converter's codes.

    The *input picture* always passes through 8-bit DACs (§3.2 — it
    needs high precision in every design); ``data_bits`` describes the
    intermediate-data precision, which the thresholds already enforce in
    the 1-bit case.

    Note the full-precision path still assumes inputs to each crossbar
    lie in [0, 1] — true for the paper's networks only after
    :func:`repro.core.rescale.rescale_network`-style normalisation, so
    callers should pass a re-scaled network.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    input_bits = 8
    binarized = BinarizedNetwork(
        network,
        dict(thresholds) if thresholds else {},
        input_bits=input_bits,
    ) if thresholds else _plain_wrapper(network, input_bits)

    calibration_flow = (
        binarized._quantize_input(calibration_images)
        if calibration_images is not None
        else None
    )
    device_arrays: Dict[str, DeviceArrayBase] = {}
    binarized.device_arrays = device_arrays
    first_weighted = True
    for index, layer in enumerate(network.layers):
        if isinstance(layer, (Conv2D, Dense)):
            layer_calibration = None
            if calibration_flow is not None:
                layer_calibration = _as_matrix_rows(layer, calibration_flow)
            layer_compute = adc_layer_compute(
                layer,
                tech=tech,
                device=device,
                # The input layer's DACs are always 8-bit (§3.2).
                data_bits=input_bits if first_weighted else data_bits,
                calibration=layer_calibration,
                rng=rng,
            )
            binarized.layer_computes[index] = layer_compute
            device_arrays[f"layer{index}"] = layer_compute.array
            first_weighted = False
        if calibration_flow is not None:
            # Propagate the calibration batch through the (now hooked)
            # layer so deeper layers calibrate on realistic inputs.
            calibration_flow = binarized.run_layer(index, calibration_flow)
    return binarized


def _as_matrix_rows(layer: Layer, x: np.ndarray) -> np.ndarray:
    """A layer's input activations as crossbar input rows (im2col'd)."""
    if isinstance(layer, Dense):
        return x
    assert isinstance(layer, Conv2D)
    from repro.nn.functional import im2col

    return im2col(
        x, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding
    )


def _plain_wrapper(network: Sequential, data_bits: int) -> BinarizedNetwork:
    """A BinarizedNetwork with no thresholds: plain layer-by-layer run.

    BinarizedNetwork requires thresholds for intermediate layers; for the
    full-precision baseline we bypass that check with an empty mapping
    via object construction, keeping the layer_computes hook machinery.
    """
    wrapper = BinarizedNetwork.__new__(BinarizedNetwork)
    wrapper.network = network
    wrapper.thresholds = {}
    wrapper.input_bits = data_bits
    wrapper.layer_computes = {}
    return wrapper