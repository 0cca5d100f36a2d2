"""The paper's contribution: quantization, SEI, dynamic threshold, splitting."""

from repro.core.binarized import (
    BinarizedNetwork,
    binarize,
    intermediate_quantizable_indices,
    or_pool,
)
from repro.core.dynamic_threshold import (
    DynamicThresholdMatrix,
    LinearTransform,
    dynamic_threshold_layer_compute,
)
from repro.core.finetune import (
    FinetuneConfig,
    FinetuneHistory,
    quantization_aware_finetune,
)
from repro.core.hardware_network import (
    HardwareConfig,
    HardwareSplitMatrix,
    adc_layer_compute,
    assemble_adc_network,
    assemble_sei_network,
)
from repro.core.engines import (
    EngineSpec,
    available_engines,
    compile_network,
    engine_builder,
    register_engine,
    resolve_engine,
)
from repro.core.estimate import EstimatorPolicy, SkipStats
from repro.core.homogenize import (
    Partition,
    block_mean_distance,
    brute_force_partition,
    homogenize,
    natural_partition,
    random_partition,
)
from repro.core.matrix_compute import apply_matrix_fn, layer_bias, layer_weight_matrix
from repro.core.pipeline import (
    SplitConfig,
    SplitLayerReport,
    SplitNetworkResult,
    build_split_network,
)
from repro.core.rescale import max_layer_output, rescale_layer, rescale_network
from repro.core.robust_search import (
    RobustSearchConfig,
    estimate_sei_output_noise_std,
    robustify_thresholds,
)
from repro.core.sei import SEIMatrix, decompose_weights, sei_layer_compute
from repro.core.splitting import (
    SplitDecision,
    SplitMatrix,
    final_layer_vote_compute,
    required_blocks,
    split_layer_compute,
)
from repro.core.threshold_search import SearchConfig, SearchResult, search_thresholds

__all__ = [
    "BinarizedNetwork",
    "binarize",
    "or_pool",
    "intermediate_quantizable_indices",
    "SearchConfig",
    "SearchResult",
    "search_thresholds",
    "max_layer_output",
    "rescale_layer",
    "rescale_network",
    "SEIMatrix",
    "decompose_weights",
    "sei_layer_compute",
    "DynamicThresholdMatrix",
    "LinearTransform",
    "dynamic_threshold_layer_compute",
    "Partition",
    "natural_partition",
    "random_partition",
    "homogenize",
    "brute_force_partition",
    "block_mean_distance",
    "SplitDecision",
    "SplitMatrix",
    "required_blocks",
    "split_layer_compute",
    "final_layer_vote_compute",
    "SplitConfig",
    "SplitLayerReport",
    "SplitNetworkResult",
    "build_split_network",
    "apply_matrix_fn",
    "layer_weight_matrix",
    "layer_bias",
    "FinetuneConfig",
    "FinetuneHistory",
    "quantization_aware_finetune",
    "RobustSearchConfig",
    "estimate_sei_output_noise_std",
    "robustify_thresholds",
    "EngineSpec",
    "EstimatorPolicy",
    "SkipStats",
    "available_engines",
    "compile_network",
    "engine_builder",
    "register_engine",
    "resolve_engine",
    "HardwareConfig",
    "HardwareSplitMatrix",
    "assemble_sei_network",
    "assemble_adc_network",
    "adc_layer_compute",
]
