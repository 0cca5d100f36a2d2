"""Warm, reusable inference sessions: compile the pipeline once, run forever.

Before this module, every inference experiment re-ran the whole
``zoo -> quantize -> split -> assemble`` chain by hand with kwargs
scattered across three modules.  :func:`compile_session` folds that
chain into one call that returns a warm :class:`InferenceSession`:

* the quantized artefacts come from the zoo's warm in-process registry
  (:func:`repro.zoo.warm_model`), keyed by the recipe digest, so two
  sessions over the same recipe share one model load;
* the hardware network is built through the engine registry
  (:func:`repro.core.engines.compile_network`) — ``fused``,
  ``reference`` or ``adc`` — optionally with calibrated §4.3 split
  decisions;
* compiled sessions are themselves registered by their config digest,
  so repeated ``compile_session`` calls return the *same* warm handle
  and skip recompilation entirely.

Deterministic tiled execution
-----------------------------
Serving must give every request the same answer regardless of how the
:class:`~repro.serve.batcher.MicroBatcher` happened to coalesce it with
its neighbours.  Plain numpy is *not* batch-invariant: BLAS picks
different kernels for different GEMM shapes, so ``forward(x[None])``
and ``forward(batch)[i]`` can differ in the last ulp.  Sessions
therefore execute in **fixed hardware tiles**: every forward pass runs
exactly ``tile`` samples (zero-padded), mirroring the constant wave of
samples a pipelined crossbar accelerator processes per step.  Same-shape
GEMMs are row-position independent, so outputs are bit-identical for
every batch composition — asserted in ``tests/test_serve.py``.

Tiling is only *bit*-load-bearing for deterministic engines (no per-read
noise); sessions over noisy engines still work, but their outputs are
stochastic by design and the session logs that serving reproducibility
is off.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro import obs, zoo
from repro.core.engines import EngineSpec, compile_network
from repro.core.binarized import BinarizedNetwork
from repro.core.pipeline import SplitConfig, build_split_network
from repro.core.threshold_search import SearchConfig
from repro.errors import ConfigurationError
from repro.hw.array import ArrayHealth, DeviceArrayBase
from repro.hw.retune import (
    RetunePolicy,
    RetuneReport,
    check_and_retune,
    retune_array,
)
from repro.nn.network import Sequential

from repro.serve.batcher import BatcherConfig, MicroBatcher

__all__ = [
    "SessionConfig",
    "InferenceSession",
    "compile_session",
    "clear_sessions",
]

logger = obs.get_logger("serve")


@dataclass(frozen=True)
class SessionConfig:
    """Everything that defines one compiled inference session."""

    #: Zoo network name (``network1`` | ``network2`` | ``network3``).
    network: str = "network2"
    #: Backend + hardware/noise options.
    engine: EngineSpec = field(default_factory=EngineSpec)
    #: Fixed hardware wave: every forward pass executes exactly this
    #: many samples (zero-padded), making outputs independent of request
    #: coalescing.  1 disables batching benefits; 16 is a good default
    #: for the Table 2 networks.
    tile: int = 16
    #: Run the §4.3 split calibration (:func:`build_split_network`) on
    #: training data and compile with the calibrated block decisions.
    calibrate_splits: bool = False
    #: Split-calibration parameters (only read when ``calibrate_splits``).
    split: Optional[SplitConfig] = None
    #: Algorithm 1 configuration for the quantized artefacts.
    search: Optional[SearchConfig] = None
    #: Model cache location override.
    cache_dir: Optional[Path] = None
    #: Online re-tuning policy for sessions over aging hardware
    #: (``engine.hardware.temporal``): every ``retune.check_every``
    #: batches the session health-checks its device arrays and re-tunes
    #: the ones whose drift crossed the policy threshold.  None disables
    #: the automatic loop (``session.retune()`` still works manually).
    retune: Optional[RetunePolicy] = None
    #: Device time units added per ``infer_batch`` call on temporal
    #: arrays (the aging clock of the serving loop).
    age_per_batch: float = 1.0

    def __post_init__(self) -> None:
        if self.tile < 1:
            raise ConfigurationError(f"tile must be >= 1, got {self.tile}")
        if self.age_per_batch < 0:
            raise ConfigurationError(
                f"age_per_batch must be >= 0, got {self.age_per_batch}"
            )

    def digest(self) -> str:
        """Deterministic digest of the full session configuration."""
        return obs.config_digest(self)


class InferenceSession:
    """A compiled, warm, reusable inference handle.

    Not constructed directly — use :func:`compile_session` (zoo-backed)
    or :meth:`InferenceSession.from_artifacts` (explicit network +
    thresholds, e.g. in tests).
    """

    def __init__(
        self,
        hardware: BinarizedNetwork,
        config: SessionConfig,
        digest: str,
        model: Optional[zoo.QuantizedModel] = None,
    ) -> None:
        self.hardware = hardware
        self.config = config
        self.digest = digest
        #: The zoo bundle the session was compiled from (None when the
        #: session was built from explicit artefacts).
        self.model = model
        self._infer_lock = None  # reserved; numpy forward is thread-safe
        self._batches = 0
        self._aging_paused = False
        #: Seeded independently of the programming stream, so retunes
        #: are reproducible given the same inference history.
        self._retune_rng = np.random.default_rng(
            [config.engine.hardware.seed, 0x7E7]
        )
        #: Reference predictions per input digest, captured by the first
        #: self_check on fresh (just-programmed) temporal hardware.
        self._check_baselines: Dict[str, np.ndarray] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def from_artifacts(
        cls,
        network: Sequential,
        thresholds: Dict[int, float],
        config: Optional[SessionConfig] = None,
        *,
        decisions=None,
        partitions=None,
        calibration_images: Optional[np.ndarray] = None,
    ) -> "InferenceSession":
        """Compile a session from explicit artefacts (bypasses the zoo)."""
        config = config if config is not None else SessionConfig()
        with obs.span(
            "serve.compile", source="artifacts", engine=config.engine.name
        ):
            hardware = compile_network(
                network,
                thresholds,
                config.engine,
                decisions=decisions,
                partitions=partitions,
                calibration_images=calibration_images,
            )
        session = cls(hardware, config, digest=config.digest())
        session._log_determinism()
        return session

    def _log_determinism(self) -> None:
        if not self.deterministic:
            logger.info(
                "engine %r draws per-read noise: serving outputs are "
                "stochastic, not bit-reproducible",
                self.config.engine.name,
            )

    # -- properties ------------------------------------------------------
    @property
    def deterministic(self) -> bool:
        """True when identical requests always get identical answers."""
        return self.config.engine.deterministic

    @property
    def device_arrays(self) -> Dict[str, DeviceArrayBase]:
        """The compiled network's live device arrays, keyed by layer."""
        return getattr(self.hardware, "device_arrays", {})

    @property
    def temporal(self) -> bool:
        """Whether any of the session's device arrays ages over time."""
        return any(a.temporal for a in self.device_arrays.values())

    @property
    def num_classes(self) -> int:
        """Output width: the final weighted layer's column count."""
        from repro.core.matrix_compute import layer_weight_matrix
        from repro.nn.layers import Conv2D, Dense

        for layer in reversed(self.hardware.network.layers):
            if isinstance(layer, (Conv2D, Dense)):
                return layer_weight_matrix(layer).shape[1]
        raise ConfigurationError("network has no weighted layers")

    # -- inference -------------------------------------------------------
    def infer_batch(self, images: np.ndarray) -> np.ndarray:
        """Logits for a batch ``(n, *input_shape)``, tile-executed.

        This is the path the :class:`MicroBatcher` drives; it is also
        what :meth:`infer` uses, so one-at-a-time and coalesced requests
        run byte-for-byte the same compute.
        """
        images = np.asarray(images)
        tile = self.config.tile
        n = len(images)
        if n == 0:
            return np.empty((0, self.num_classes))
        outputs = []
        for start in range(0, n, tile):
            chunk = images[start : start + tile]
            pad = tile - len(chunk)
            if pad:
                chunk = np.concatenate(
                    [chunk, np.zeros((pad,) + chunk.shape[1:])]
                )
            logits = self.hardware.forward(chunk)
            outputs.append(logits[: tile - pad] if pad else logits)
        obs.count("serve/samples", n)
        self._after_batch()
        return (
            np.concatenate(outputs)
            if len(outputs) != 1
            else outputs[0]
        )

    def _after_batch(self) -> None:
        """Advance the device clock and run the retune cadence."""
        if self._aging_paused or not self.temporal:
            return
        self._batches += 1
        if self.config.age_per_batch > 0:
            for array in self.device_arrays.values():
                if array.temporal:
                    array.advance(self.config.age_per_batch)
        policy = self.config.retune
        if policy is not None and self._batches % policy.check_every == 0:
            report = check_and_retune(
                self.device_arrays, policy, rng=self._retune_rng
            )
            if report.retuned:
                logger.info(
                    "session %s retuned %d arrays (worst drift %.3f "
                    "level steps)",
                    self.digest,
                    len(report.events),
                    report.worst_drift,
                )

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Logits for one sample ``(*input_shape)`` or a batch.

        Batch-transparent like
        :meth:`repro.core.binarized.BinarizedNetwork.forward`: a single
        sample returns an unbatched logits vector.
        """
        x = np.asarray(x)
        single = x.ndim == len(self.hardware.network.input_shape)
        logits = self.infer_batch(x[None] if single else x)
        return logits[0] if single else logits

    def classify(self, x: np.ndarray) -> np.ndarray:
        """Predicted class label(s) for one sample or a batch."""
        logits = self.infer(x)
        return np.argmax(logits, axis=-1)

    def error_rate(
        self, images: np.ndarray, labels: np.ndarray
    ) -> float:
        """Classification error over ``images`` (tile-executed)."""
        predictions = self.classify(images)
        return float(np.mean(predictions != np.asarray(labels)))

    def self_check(
        self, images: np.ndarray, max_disagreement: float = 0.0
    ) -> None:
        """Assert the session still answers like it did when compiled.

        Static (non-temporal) sessions run the conformance harness's
        batch-invariance check (:func:`repro.testing.differential.
        check_batch_invariance`): whole batch vs one-at-a-time vs split
        compositions, bit-for-bit.  Raises
        :class:`~repro.errors.ConformanceError` on a violation; a no-op
        for non-deterministic engines (their outputs are stochastic by
        design, so composition invariance is not defined).

        Sessions over *aging* hardware are not batch-composition
        invariant (every batch advances the device clock), so the check
        changes meaning: the first call on a probe set captures the
        fresh hardware's predictions as the baseline, and every later
        call re-classifies the same probes and fails once the
        disagreement fraction exceeds ``max_disagreement`` — the
        degradation signal the online re-tuning loop keys on.  The
        probe passes themselves do not advance the aging clock.
        """
        images = np.asarray(images)
        if self.temporal:
            self._degradation_check(images, max_disagreement)
            return
        if not self.deterministic:
            logger.info(
                "self_check skipped: engine %r is non-deterministic",
                self.config.engine.name,
            )
            return
        from repro.errors import ConformanceError
        from repro.testing.differential import check_batch_invariance

        violation = check_batch_invariance(self, images)
        if violation is not None:
            raise ConformanceError(
                f"session {self.digest!r} is not batch-invariant: "
                f"{violation}"
            )

    def _degradation_check(
        self, images: np.ndarray, max_disagreement: float
    ) -> None:
        import hashlib

        from repro.errors import ConformanceError

        key = hashlib.sha256(
            repr(images.shape).encode() + images.tobytes()
        ).hexdigest()[:16]
        self._aging_paused = True
        try:
            predictions = self.classify(images)
        finally:
            self._aging_paused = False
        baseline = self._check_baselines.get(key)
        if baseline is None:
            self._check_baselines[key] = predictions
            obs.set_gauge("serve/self_check/disagreement", 0.0)
            return
        disagreement = float(np.mean(predictions != baseline))
        obs.set_gauge("serve/self_check/disagreement", disagreement)
        if disagreement > max_disagreement:
            worst = max(
                (h.drift_level_steps for h in self.health().values()),
                default=0.0,
            )
            raise ConformanceError(
                f"session {self.digest!r} degraded: {disagreement:.1%} of "
                f"probe predictions moved vs the fresh-hardware baseline "
                f"(allowed {max_disagreement:.1%}; worst array drift "
                f"{worst:.3f} level steps) — re-tune "
                f"(session.retune(force=True)) to restore"
            )

    # -- aging hardware ---------------------------------------------------
    def health(self) -> Dict[str, ArrayHealth]:
        """Health read-outs of every device array, mirrored to gauges."""
        report: Dict[str, ArrayHealth] = {}
        for name, array in self.device_arrays.items():
            health = array.health()
            report[name] = health
            obs.set_gauge(f"hw/drift/{name}", health.drift_level_steps)
            obs.set_gauge(
                f"hw/reads/{name}", float(health.reads_since_program)
            )
            obs.set_gauge(f"hw/age/{name}", health.age)
        if report:
            obs.set_gauge(
                "hw/drift/worst",
                max(h.drift_level_steps for h in report.values()),
            )
        return report

    def retune(
        self,
        policy: Optional[RetunePolicy] = None,
        force: bool = False,
    ) -> RetuneReport:
        """Health-check and re-tune the session's device arrays now.

        ``policy`` defaults to the session's configured policy (or the
        :class:`~repro.hw.retune.RetunePolicy` defaults); ``force=True``
        re-tunes every temporal array regardless of its drift level.
        """
        policy = (
            policy
            if policy is not None
            else (self.config.retune or RetunePolicy())
        )
        if not force:
            return check_and_retune(
                self.device_arrays, policy, rng=self._retune_rng
            )
        report = RetuneReport()
        for name, array in self.device_arrays.items():
            report.checked[name] = array.health()
            if array.temporal:
                report.events.append(
                    retune_array(
                        array, policy, rng=self._retune_rng, name=name
                    )
                )
        return report

    # -- serving ---------------------------------------------------------
    def batcher(
        self, config: Optional[BatcherConfig] = None
    ) -> MicroBatcher:
        """A (not yet started) micro-batcher over this session."""
        return MicroBatcher(self, config)

    def serve(self, config: Optional[BatcherConfig] = None) -> MicroBatcher:
        """A *running* micro-batcher over this session."""
        return self.batcher(config).start()

    def serve_live(
        self,
        config: Optional[BatcherConfig] = None,
        *,
        slo=None,
        flight_capacity: int = 2048,
        listen: Optional[str] = None,
    ):
        """A running batcher wired into a live telemetry plane.

        Returns ``(batcher, plane, server)``: the
        :class:`MicroBatcher` feeds the plane's flight recorder, the
        plane's recorder is installed process-global (so the serving
        hot path lands in its registry), and — when ``listen`` is given
        as ``"host:port"`` or just ``"port"`` — an
        :class:`~repro.obs.exposition.ExpositionServer` is started on
        it (``server`` is ``None`` otherwise).  This is the wiring
        behind ``repro-cli serve --listen``.
        """
        from repro.obs.live import TelemetryPlane

        plane = TelemetryPlane(slo=slo, flight_capacity=flight_capacity)
        plane.install()
        batcher = plane.attach(self.serve(config))
        server = None
        if listen is not None:
            host, _, port = str(listen).rpartition(":")
            server = plane.serve(
                host=host or "127.0.0.1", port=int(port or 0)
            )
        return batcher, plane, server

    def __repr__(self) -> str:
        return (
            f"InferenceSession(network={self.config.network!r}, "
            f"engine={self.config.engine.name!r}, tile={self.config.tile}, "
            f"digest={self.digest!r})"
        )


#: Compiled-session registry: config digest -> warm session.
_SESSIONS: Dict[str, InferenceSession] = {}
_SESSIONS_LOCK = threading.Lock()


def compile_session(
    config: Optional[SessionConfig] = None,
    *,
    dataset=None,
    reuse: bool = True,
) -> InferenceSession:
    """Compile (or fetch the warm copy of) a zoo-backed session.

    The full pipeline — train/load -> quantize (Algorithm 1) ->
    optionally calibrate §4.3 splits -> assemble on the selected engine
    — runs **once** per configuration digest; subsequent calls with an
    equal config return the same warm :class:`InferenceSession`.

    ``dataset`` overrides the zoo's default dataset (artefact training /
    split calibration); ``reuse=False`` forces a fresh compile and does
    not register the result.

    The registry lock is held across compilation, so concurrent callers
    of the same config wait for one compile instead of racing.
    """
    config = config if config is not None else SessionConfig()
    key = config.digest()
    with _SESSIONS_LOCK:
        if reuse:
            session = _SESSIONS.get(key)
            if session is not None:
                obs.count("serve/session/reused")
                return session
        obs.count("serve/session/compiled")
        with obs.span(
            "serve.compile",
            network=config.network,
            engine=config.engine.name,
            tile=config.tile,
        ):
            model = zoo.warm_model(
                config.network,
                dataset=dataset,
                search_config=config.search,
                cache_dir=config.cache_dir,
            )
            decisions = partitions = None
            if config.calibrate_splits:
                data = (
                    dataset
                    if dataset is not None
                    else zoo.get_dataset(cache_dir=config.cache_dir)
                )
                split = build_split_network(
                    model.search.network,
                    model.search.thresholds,
                    data.train.images,
                    data.train.labels,
                    config.split,
                )
                decisions = {
                    i: r.decision for i, r in split.reports.items()
                }
                partitions = {
                    i: r.partition for i, r in split.reports.items()
                }
            hardware = compile_network(
                model.search.network,
                model.search.thresholds,
                config.engine,
                decisions=decisions,
                partitions=partitions,
            )
        session = InferenceSession(hardware, config, digest=key, model=model)
        session._log_determinism()
        if reuse:
            _SESSIONS[key] = session
    return session


def clear_sessions() -> None:
    """Drop every compiled-session registry entry (tests)."""
    with _SESSIONS_LOCK:
        _SESSIONS.clear()
