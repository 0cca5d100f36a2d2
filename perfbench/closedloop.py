"""Closed-loop workloads: one caller evaluating network1 on the test set.

A *pass* is one sweep over the 1500 held-out test images, each pass in
its own seeded order.  On ``skip-n1`` a pass is one
``InferenceSession.error_rate`` call over all of them, the call
``repro.dse`` makes for every hardware evaluation.  On ``aging-n1`` a
pass is ``infer_batch`` calls of :data:`AGING_CALL_IMAGES`, each sent
after the previous one returned.  Passes repeat until the run's seconds
are spent and at least :data:`ERROR_PASSES` passes are complete (the
first pass also feeds the correctness gates).  ``images_per_s`` and
``cpu_ms_per_image`` are read per window -- one ``error_rate`` call, or
the :data:`AGING_WINDOW_CALLS` calls between two re-tune checks -- and
the run reports what the fastest tenth of windows reach
(:data:`common.FAST_QUANTILE`).

The traced run replays every tile of every call through
``BinarizedNetwork.run_layer`` and checks that the replay equals
``BinarizedNetwork.forward`` on the same tile.  Workloads whose reads
change session state replay on a second session of the same config, so
the timed session sees only the timed calls.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    SETUP_REPEATS,
    Tracer,
    clear_registries,
    fast_cost,
    fast_rate,
    median,
    peak_rss_mb,
    quantile,
    settle,
)

#: Images per ``infer_batch`` call on ``aging-n1``.
AGING_CALL_IMAGES = 64
#: ``aging-n1`` calls per window, which hold one re-tune check.
AGING_WINDOW_CALLS = 8
#: Layers of the Table 2 networks timed one by one in the traced replay:
#: conv1, pool1, conv2 (split on network1), pool2, fc.  ReLU and flatten
#: run too, inside the replay span's self time.
TRACED_LAYERS = (0, 2, 3, 5, 7)
#: Weighted layers priced by ``repro.obs.power``.
ENERGY_LAYERS = (0, 3, 7)
#: Complete passes whose errors give ``error_rate``; the timed loop runs
#: at least this many.  On aging hardware the error of one pass depends
#: on the image order; averaging passes in different orders keeps the
#: seed from setting the figure.
ERROR_PASSES = 16
#: Test images (by index) compared against the reference engine.
REFERENCE_SLICE = 32


@dataclass(frozen=True)
class ClosedLoopWorkload:
    name: str
    network: str
    #: Builds the session config (needs ``repro``, so it runs after
    #: bootstrap).
    make_config: Callable[[], object]
    #: Each of ``reference``, ``estimator_off``, ``same_seed``.
    gates: Tuple[str, ...]
    #: Inference changes session state (aging clock, estimator
    #: calibration): gates, the recorded pass and the traced replay use
    #: fresh sessions.
    stateful: bool
    #: Images per ``infer_batch`` call; ``None`` makes each pass one
    #: ``error_rate`` call over the whole test set.
    call_images: Optional[int] = None
    #: Consecutive calls timed together as one window of the rate.
    window_calls: int = 1


def _skip_config():
    from repro.core.engines import EngineSpec
    from repro.core.estimate import EstimatorPolicy
    from repro.core.hardware_network import HardwareConfig
    from repro.serve.session import SessionConfig

    return SessionConfig(
        network="network1",
        engine=EngineSpec(
            hardware=HardwareConfig(partition_method="natural"),
            estimator=EstimatorPolicy(mode="exact"),
        ),
    )


def _aging_config():
    from repro.core.engines import EngineSpec
    from repro.core.hardware_network import HardwareConfig
    from repro.hw.array import DeviceSpec, TemporalConfig
    from repro.hw.retune import RetunePolicy
    from repro.serve.session import SessionConfig

    temporal = TemporalConfig(
        drift_nu=0.05, drift_nu_sigma=0.5, read_disturb_rate=1e-6
    )
    device = DeviceSpec(read_sigma=0.02).device()
    return SessionConfig(
        network="network1",
        engine=EngineSpec(
            hardware=HardwareConfig(device=device, temporal=temporal)
        ),
        retune=RetunePolicy(check_every=8),
    )


WORKLOADS: Dict[str, ClosedLoopWorkload] = {
    w.name: w
    for w in (
        ClosedLoopWorkload(
            "skip-n1", "network1", _skip_config,
            ("estimator_off", "reference"), True,
        ),
        ClosedLoopWorkload(
            "aging-n1", "network1", _aging_config, ("same_seed",), True,
            call_images=AGING_CALL_IMAGES,
            window_calls=AGING_WINDOW_CALLS,
        ),
    )
}


# -- set-up ----------------------------------------------------------------------


def setup(workload: ClosedLoopWorkload, first: np.ndarray,
          tracer: Tracer) -> tuple:
    """Empty registries -> load -> compile -> first logits, timed."""
    from repro import zoo
    from repro.serve.session import compile_session

    config = workload.make_config()
    clear_registries()
    with tracer.span("setup") as root:
        with tracer.span("zoo.load", parent=root.id) as load:
            zoo.warm_model(workload.network)
        with tracer.span("core.compile", parent=root.id) as comp:
            session = compile_session(config, reuse=not workload.stateful)
        with tracer.span("first_logits", parent=root.id):
            session.infer_batch(first)
    parts = {
        "setup_s": tracer.duration(root.id),
        "zoo.load_s": tracer.duration(load.id),
        "core.compile_s": tracer.duration(comp.id),
    }
    return session, parts


def _fresh_session(config, first: np.ndarray):
    """A session in the state :func:`setup` leaves, built without timing."""
    from repro.serve.session import compile_session

    session = compile_session(config, reuse=False)
    session.infer_batch(first)
    return session


# -- the loop ------------------------------------------------------------------------


def pass_order(seed: int, index: int, n: int) -> np.ndarray:
    """Image order of pass ``index``: a fresh seeded permutation per pass."""
    return np.random.default_rng([seed, index]).permutation(n)


def pass_calls(workload: ClosedLoopWorkload,
               order: np.ndarray) -> List[np.ndarray]:
    """Image indices of each call of one pass."""
    n = workload.call_images
    if n is None:
        return [order]
    return [order[i:i + n] for i in range(0, len(order), n)]


def call(session, workload: ClosedLoopWorkload, data,
         idx: np.ndarray) -> tuple:
    """One call of the loop; returns ``(wrong predictions, logits)``.

    ``logits`` is ``None`` for ``error_rate`` calls, which return only
    the error.
    """
    if workload.call_images is None:
        error = session.error_rate(data.images[idx], data.labels[idx])
        return error * len(idx), None
    logits = session.infer_batch(data.images[idx])
    return int(np.sum(np.argmax(logits, axis=1) != data.labels[idx])), logits


class _InferBatchSpans:
    """Records a ``serve.session.infer_batch`` span around every call of
    the session's ``infer_batch``, including the one ``error_rate`` makes,
    as a child of the current caller span.
    """

    def __init__(self, session, tracer: Tracer) -> None:
        self.session, self.tracer = session, tracer
        self.inner = session.infer_batch
        self.parent: Optional[int] = None
        self.rid: Optional[int] = None

    def __enter__(self) -> "_InferBatchSpans":
        def infer_batch(images):
            with self.tracer.span("serve.session.infer_batch",
                                  parent=self.parent, rid=self.rid):
                return self.inner(images)

        self.session.infer_batch = infer_batch
        return self

    def __exit__(self, *exc) -> None:
        del self.session.infer_batch


def run_passes(
    session,
    workload: ClosedLoopWorkload,
    data,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    on_call: Optional[Callable] = None,
    min_passes: int = 1,
) -> dict:
    """Closed loop, pass after pass, until ``seconds`` pass and at least
    ``min_passes`` passes are complete.

    Returns per-call sizes and durations, the wall seconds of every
    complete pass, ``(images, wall s, process CPU s)`` of every window of
    ``workload.window_calls`` calls, the error of the first
    :data:`ERROR_PASSES` complete passes and, for ``infer_batch`` calls,
    the logits of the first pass.  With a ``tracer`` every call is a
    ``caller.call`` root over a ``serve.session.error_rate`` span or
    directly over the
    ``serve.session.infer_batch`` spans, and
    ``on_call(root_id, call_index, x, seconds)`` runs after each call.
    """
    out = {"sizes": [], "durations": [], "pass_s": [], "pass_error": [],
           "windows": []}
    spans = _InferBatchSpans(session, tracer) if tracer else None
    deadline = time.perf_counter() + seconds
    k = 0
    window = [0, 0.0, time.process_time()]  # images, wall s, CPU at start
    with spans or nullcontext():
        while True:
            order = pass_order(seed, len(out["pass_s"]), len(data))
            wall, wrong = 0.0, 0.0
            logits_of_pass = []
            for idx in pass_calls(workload, order):
                if tracer is None:
                    t0 = time.perf_counter()
                    w, logits = call(session, workload, data, idx)
                    d = time.perf_counter() - t0
                else:
                    with tracer.span("caller.call", rid=k) as root:
                        spans.parent, spans.rid = root.id, k
                        t0 = time.perf_counter()
                        if workload.call_images is None:
                            with tracer.span("serve.session.error_rate",
                                             parent=root.id, rid=k) as c:
                                spans.parent = c.id
                                w, logits = call(session, workload, data, idx)
                        else:
                            w, logits = call(session, workload, data, idx)
                        d = time.perf_counter() - t0
                        on_call(root.id, k, data.images[idx], d)
                out["sizes"].append(len(idx))
                out["durations"].append(d)
                window[0] += len(idx)
                window[1] += d
                if k % workload.window_calls == workload.window_calls - 1:
                    cpu_now = time.process_time()
                    out["windows"].append(
                        (window[0], window[1], cpu_now - window[2]))
                    window = [0, 0.0, cpu_now]
                wall += d
                wrong += w
                k += 1
                if logits is not None and "first_pass" not in out:
                    logits_of_pass.append(logits)
                if (len(out["pass_s"]) >= min_passes
                        and time.perf_counter() >= deadline):
                    break
            else:
                out["pass_s"].append(wall)
                if len(out["pass_error"]) < ERROR_PASSES:
                    out["pass_error"].append(wrong / len(order))
                if logits_of_pass:
                    out["first_pass"] = np.concatenate(logits_of_pass)
                if (len(out["pass_s"]) < min_passes
                        or time.perf_counter() < deadline):
                    continue
            return out


def one_pass(session, workload: ClosedLoopWorkload, data,
             order: np.ndarray) -> Optional[np.ndarray]:
    """One untimed pass in ``order``; the logits of ``infer_batch`` calls."""
    logits = [call(session, workload, data, idx)[1]
              for idx in pass_calls(workload, order)]
    return None if logits[0] is None else np.concatenate(logits)


# -- traced replay ----------------------------------------------------------------------


def quantize_input(hardware, x: np.ndarray) -> np.ndarray:
    """The input DAC rounding ``BinarizedNetwork.forward`` applies first."""
    if hardware.input_bits is None:
        return x
    steps = 2 ** hardware.input_bits - 1
    return np.rint(np.clip(x, 0.0, 1.0) * steps) / steps


def replay_tiles(session, x: np.ndarray, tracer: Tracer, parent: int,
                 rid: int, check: bool) -> None:
    """Re-run ``x`` tile by tile as ``forward`` and as ``run_layer`` calls.

    With ``check`` the layer-by-layer result must equal ``forward``
    bit for bit (engines without per-read noise).
    """
    hardware = session.hardware
    tile = session.config.tile
    layers = hardware.network.layers
    for start in range(0, len(x), tile):
        chunk = x[start:start + tile]
        if len(chunk) < tile:
            pad = np.zeros((tile - len(chunk),) + chunk.shape[1:])
            chunk = np.concatenate([chunk, pad])
        with tracer.span("core.tile", parent=parent, rid=rid) as t:
            with tracer.span("core.forward", parent=t.id, rid=rid):
                expected = hardware.forward(chunk)
            with tracer.span("core.replay", parent=t.id, rid=rid) as rp:
                y = quantize_input(hardware, chunk)
                for index in range(len(layers)):
                    if index in TRACED_LAYERS:
                        with tracer.span(f"core.layer{index}", parent=rp.id,
                                         rid=rid):
                            y = hardware.run_layer(index, y)
                    else:
                        y = hardware.run_layer(index, y)
        if check and not np.array_equal(y, expected):
            raise AssertionError(
                "run_layer replay differs from forward on one tile"
            )


def layer_metrics(by_name: Dict[str, List[float]], tile: int) -> dict:
    """Per-layer medians from the replay spans."""
    out = {
        f"core.layer{i}.ms_per_image": median(by_name.get(f"core.layer{i}", []))
        / tile
        for i in TRACED_LAYERS
    }
    out["core.forward.ms_per_tile"] = median(by_name.get("core.forward", []))
    return out


# -- recorded pass --------------------------------------------------------------------


def power_metrics(rec, images: int) -> dict:
    """Modelled SEI energy and row activity from ``repro.obs`` counters."""
    from repro.obs.power import estimate_from_metrics

    power = estimate_from_metrics(rec.metrics)
    layers = power["layers"]
    total = power["total"]
    out = {"energy_pj_per_image": total["dynamic_pj"] / images}
    for i in ENERGY_LAYERS:
        out[f"core.layer{i}.energy_pj_per_image"] = (
            layers[str(i)]["dynamic_pj"] / images if str(i) in layers else 0.0
        )
    for i in (3, 7):
        activity = layers.get(str(i), {}).get("mean_row_activity")
        out[f"core.layer{i}.row_activity"] = activity or 0.0
    out["core.estimate.hit_rate"] = total["estimator_hit_rate"] or 0.0
    out["core.estimate.skipped_row_frac"] = total["skipped_rows_pct"] or 0.0
    counters = rec.metrics.as_dict().get("counters", {})
    out["hw.retune.events"] = float(counters.get("hw/retune/events", 0))
    return out


# -- the run --------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One closed-loop run; returns correctness, counts and metrics."""
    from repro import obs, zoo
    from repro.core.estimate import EstimatorPolicy
    from repro.serve.session import compile_session
    from repro.testing.differential import SEI_ATOL, SEI_RTOL

    workload = WORKLOADS[name]
    config = workload.make_config()
    data = zoo.get_dataset().test
    order = pass_order(seed, 0, len(data))
    first = data.images[order[:1]]

    tracer = Tracer()
    setups = [setup(workload, first, tracer) for _ in range(SETUP_REPEATS)]
    session = setups[-1][0]
    parts = {
        key: median([p[key] for _, p in setups]) for key in setups[0][1]
    }
    settle()

    untraced = run_passes(session, workload, data, seed,
                          seconds / 2 if trace else seconds,
                          min_passes=ERROR_PASSES)
    rss = peak_rss_mb()
    failures: List[str] = []

    # Recorded pass: the same config, call shape and images, priced by
    # obs.power.
    fresh = (lambda: _fresh_session(config, first)) if workload.stateful \
        else (lambda: session)
    with obs.recording() as rec:
        recorded = one_pass(fresh(), workload, data, order)
    power = power_metrics(rec, len(order))

    if "reference" in workload.gates:
        ref_config = replace(config, engine=replace(
            config.engine, name="reference", estimator=EstimatorPolicy()))
        ref = compile_session(ref_config, reuse=False)
        probe = data.images[:REFERENCE_SLICE]
        if not np.allclose(session.infer_batch(probe),
                           ref.infer_batch(probe),
                           rtol=SEI_RTOL, atol=SEI_ATOL):
            failures.append("logits differ from the reference engine")
    if "estimator_off" in workload.gates:
        off_config = replace(config, engine=replace(
            config.engine, estimator=EstimatorPolicy()))
        off = compile_session(off_config, reuse=False)
        probe = data.images[order]
        if not np.array_equal(session.infer_batch(probe),
                              off.infer_batch(probe)):
            failures.append("estimator changed the logits")
    if "same_seed" in workload.gates:
        if not np.array_equal(untraced["first_pass"], recorded):
            failures.append("two same-seed passes differ")
        if power["hw.retune.events"] <= 0:
            failures.append("no re-tune event in a pass")

    durations = untraced["durations"]
    windows = untraced["windows"]
    window_rates = [n / wall for n, wall, _ in windows]
    e2e = {
        "setup_s": parts["setup_s"],
        "images_per_s": fast_rate(window_rates),
        "cpu_ms_per_image": fast_cost([cpu * 1e3 / n
                                       for n, _, cpu in windows]),
        "error_rate": float(np.mean(untraced["pass_error"])),
        "energy_pj_per_image": power["energy_pj_per_image"],
        "peak_rss_mb": rss,
    }
    result = {
        "failures": failures,
        "attempted": sum(untraced["sizes"]),
        "failed": 0,
        "e2e": e2e,
        "detail": {
            "calls": len(durations),
            "call_ms_p50": quantile(durations, 0.5) * 1e3,
            "call_ms_p99": quantile(durations, 0.99) * 1e3,
            "complete_passes": len(untraced["pass_s"]),
            "run_images_per_s": sum(untraced["sizes"]) / sum(durations),
            "window_images_per_s": window_rates,
        },
        "config": config,
    }
    if not trace:
        return result

    # Traced half: the same loop with spans, plus the per-tile replay.
    retune_calls: List[float] = []
    drift: List[float] = []
    epochs = [_program_epochs(session.health()) if session.temporal else 0]
    tile_fill: List[float] = []
    tile = session.config.tile
    replay = fresh()

    def on_call(root: int, k: int, x: np.ndarray, d: float) -> None:
        tiles = -(-len(x) // tile)
        tile_fill.append(len(x) / (tiles * tile))
        if session.temporal:
            with tracer.span("hw.array.health", parent=root, rid=k):
                health = session.health()
            drift.append(max(h.drift_level_steps for h in health.values()))
            epochs.append(_program_epochs(health))
            if epochs[-1] != epochs[-2]:
                retune_calls.append(d * 1e3)
        replay_tiles(replay, x, tracer, root, k, check=replay.deterministic)

    traced = run_passes(session, workload, data, seed, seconds / 2, tracer,
                        on_call)
    by_name = tracer.self_ms_by_name()
    call_ms = by_name["serve.session.infer_batch"]
    traced_ips = sum(traced["sizes"]) / sum(traced["durations"])
    untraced_ips = sum(untraced["sizes"]) / sum(durations)
    layer = {
        "zoo.load_s": parts["zoo.load_s"],
        "core.compile_s": parts["core.compile_s"],
        "serve.gateway.start_s": 0.0,
        **layer_metrics(by_name, tile),
        **{k: v for k, v in power.items() if k != "energy_pj_per_image"},
        "serve.session.infer_batch_ms.p50": quantile(call_ms, 0.5),
        "serve.session.infer_batch_ms.p99": quantile(call_ms, 0.99),
        "serve.session.tile_fill": float(np.mean(tile_fill)),
        "hw.retune.batch_ms.p50": quantile(retune_calls, 0.5),
        "hw.array.drift_worst": max(drift, default=0.0),
        "trace.overhead_frac": untraced_ips / traced_ips - 1.0,
    }
    result["layer"] = layer
    result["tracer"] = tracer
    result["by_name"] = by_name
    return result


def _program_epochs(health) -> int:
    """Re-programmings so far, summed over the session's arrays."""
    return sum(h.program_epoch for h in health.values())
