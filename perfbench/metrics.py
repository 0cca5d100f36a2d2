"""Every metric the benchmark prints, by name, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

#: What a user of the simulator sees, printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "cpu_ms_per_image": "ms",
    "error_rate": "fraction",
    "energy_pj_per_image": "pJ",
    "peak_rss_mb": "MiB",
}

#: Single layers, measured from outside, printed with ``--trace 1``.
PER_LAYER = {
    "zoo.load_s": "s",
    "core.compile_s": "s",
    "serve.gateway.start_s": "s",
    "core.layer0.ms_per_image": "ms",
    "core.layer2.ms_per_image": "ms",
    "core.layer3.ms_per_image": "ms",
    "core.layer5.ms_per_image": "ms",
    "core.layer7.ms_per_image": "ms",
    "core.forward.ms_per_tile": "ms",
    "core.layer0.energy_pj_per_image": "pJ",
    "core.layer3.energy_pj_per_image": "pJ",
    "core.layer7.energy_pj_per_image": "pJ",
    "core.layer3.row_activity": "fraction",
    "core.layer7.row_activity": "fraction",
    "core.estimate.hit_rate": "fraction",
    "core.estimate.skipped_row_frac": "fraction",
    "serve.session.infer_batch_ms.p50": "ms",
    "serve.session.infer_batch_ms.p99": "ms",
    "serve.session.tile_fill": "fraction",
    "serve.batcher.wait_ms.p50": "ms",
    "serve.batcher.wait_ms.p99": "ms",
    "serve.batcher.batch_size.mean": "count",
    "serve.batcher.queue_depth.max": "count",
    "serve.gateway.latency_ms.p50": "ms",
    "serve.gateway.latency_ms.p99": "ms",
    "serve.gateway.max_rate_rps": "1/s",
    "serve.gateway.submit_ms.p50": "ms",
    "serve.gateway.submit_ms.p99": "ms",
    "serve.gateway.return_ms.p50": "ms",
    "serve.gateway.rejected": "count",
    "hw.retune.events": "count",
    "hw.retune.batch_ms.p50": "ms",
    "hw.array.drift_worst": "steps",
    "loadgen.lag_ms.p99": "ms",
    "trace.overhead_frac": "fraction",
}
