"""Unit and integration tests for the runtime activation estimator.

The estimator's contract has two halves: a *model* half (the suffix
bound tables bracket every reachable tail sum, and :class:`SkipModel`
prices exactly the counters a plain per-position loop over the modelled
circuit counts) and a *plumbing* half (exact mode is bit-identical to
off, engines that cannot honour the contract reject the policy, and the
fused and packed engines record the same counters and threshold-mode
outputs).  Both halves are pinned here against a brute-force oracle on
randomized small matrices plus the tiny compiled network.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.engines import EngineSpec, compile_network
from repro.core.estimate import (
    HEAD_ROWS,
    MAX_K,
    EstimatorPolicy,
    SkipModel,
    SkipStats,
    _suffix_bound_table,
)
from repro.core.hardware_network import HardwareConfig
from repro.errors import ConfigurationError
from repro.hw.array import TemporalConfig
from repro.hw.device import RRAMDevice
from repro.testing.differential import SEI_ATOL, SEI_RTOL


class TestEstimatorPolicy:
    def test_defaults_are_off(self):
        policy = EstimatorPolicy()
        assert policy.mode == "off"
        assert not policy.enabled
        assert not policy.exact

    def test_mode_properties(self):
        assert EstimatorPolicy(mode="exact").exact
        assert EstimatorPolicy(mode="exact").enabled
        threshold = EstimatorPolicy(mode="threshold", confidence=0.8)
        assert threshold.enabled and not threshold.exact

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            EstimatorPolicy(mode="sometimes")

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.5])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ConfigurationError, match="confidence"):
            EstimatorPolicy(mode="threshold", confidence=confidence)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "threshold", "confidence": float("nan")},
            {"mode": "threshold", "confidence": float("inf")},
            {"mode": None},
        ],
    )
    def test_rejects_degenerate_knobs(self, kwargs):
        with pytest.raises(ConfigurationError, match="mode|confidence"):
            EstimatorPolicy(**kwargs)


class TestSkipStats:
    def test_merge_accumulates(self):
        a = SkipStats(1, 2, 3, 4)
        a.merge(SkipStats(10, 20, 30, 40))
        assert (
            a.skipped_rows,
            a.skipped_slots,
            a.est_positions,
            a.est_decided,
        ) == (11, 22, 33, 44)
        assert a.sa_events == 33 - 44


class TestSuffixBoundTable:
    """Row ``k`` of the table is extreme over every k-row subset."""

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_bounds_every_subset(self, rng, sign):
        parts = sign * np.abs(rng.normal(size=(9, 4)))
        cap = 6
        table = _suffix_bound_table(parts, cap)
        assert table.shape == (cap + 1, 4)
        np.testing.assert_array_equal(table[0], 0.0)
        for _ in range(50):
            k = int(rng.integers(0, parts.shape[0] + 1))
            subset = rng.choice(parts.shape[0], size=k, replace=False)
            total = parts[subset].sum(axis=0)
            bound = table[min(k, cap)]
            if sign < 0:
                assert np.all(bound <= total + 1e-12)
            else:
                assert np.all(bound >= total - 1e-12)

    def test_tail_rows_hold_full_sum(self, rng):
        parts = np.abs(rng.normal(size=(3, 2)))
        table = _suffix_bound_table(parts, 8)
        full = parts.sum(axis=0)
        for k in range(3, 9):
            np.testing.assert_allclose(table[k], full)

    def test_empty_suffix_is_zero(self):
        table = _suffix_bound_table(np.zeros((0, 3)), 4)
        np.testing.assert_array_equal(table, 0.0)


def _oracle(matrices, blocks, bias, threshold, vote, bits, policy):
    """The modelled circuit, one position and one column at a time.

    Returns ``(out, (skipped_rows, skipped_slots, est_positions,
    est_decided))``.  Integer weights keep every sum exact, so the
    comparisons cannot depend on summation order.
    """
    n = bits.shape[0]
    cols = matrices[0].shape[1]
    conf = 1.0 if policy.exact else policy.confidence
    orders = []
    for rows, m in zip(blocks, matrices):
        if policy.exact:
            key = [-sum(bits[p, rows[i]] for p in range(n))
                   for i in range(len(rows))]
        else:
            key = [-max(abs(v) for v in m[i]) for i in range(len(rows))]
        orders.append(sorted(range(len(rows)), key=lambda i: (key[i], i)))
    skipped_rows = skipped_slots = est_positions = est_decided = 0
    out = np.zeros((n, cols))
    for p in range(n):
        counts = [0] * cols
        settled = [False] * cols
        for k, (rows, m) in enumerate(zip(blocks, matrices)):
            x = [bits[p, r] for r in rows]
            t = threshold(sum(x)) if callable(threshold) else threshold
            head, tail = orders[k][:HEAD_ROWS], orders[k][HEAD_ROWS:]
            active_tail = int(sum(x[i] for i in tail))
            open_left = False
            for c in range(cols):
                care = not settled[c]
                est_positions += care
                bit = sum(x[i] * m[i, c] for i in range(len(x))) + bias[c] > t
                if len(x) > HEAD_ROWS:
                    acc = sum(x[i] * m[i, c] for i in head) + bias[c]
                    neg = sorted(min(m[i, c], 0.0) for i in tail)
                    pos = sorted((max(m[i, c], 0.0) for i in tail),
                                 reverse=True)
                    depth = active_tail if active_tail < MAX_K else len(tail)
                    early = acc + sum(neg[:depth]) * conf > t
                    late = acc + sum(pos[:depth]) * conf <= t
                    if care and (early or late):
                        est_decided += 1
                        bit = early
                    elif care:
                        open_left = True
                counts[c] += bit
            if len(x) > HEAD_ROWS and not open_left:
                skipped_rows += active_tail
                skipped_slots += len(tail)
            remaining = len(blocks) - 1 - k
            if not remaining:
                break
            settled = [
                s or counts[c] >= vote or counts[c] + remaining < vote
                for c, s in enumerate(settled)
            ]
            if all(settled):
                for later in blocks[k + 1:]:
                    skipped_rows += int(sum(bits[p, r] for r in later))
                    skipped_slots += len(later)
                break
        out[p] = [count >= vote for count in counts]
    return out, (skipped_rows, skipped_slots, est_positions, est_decided)


def _layer(rng, sizes, cols=5, density=0.25, n=24, weights=(-6, 7)):
    """Random integer blocks over a scattered partition, plus bits."""
    rows = sum(sizes)
    perm = rng.permutation(rows)
    blocks = np.split(perm, np.cumsum(sizes)[:-1])
    matrices = [
        rng.integers(*weights, size=(size, cols)).astype(np.float64)
        for size in sizes
    ]
    bias = rng.integers(-2, 3, size=cols).astype(np.float64)
    bits = (rng.random((n, rows)) < density).astype(np.float64)
    return matrices, blocks, bias, bits


_POLICIES = [
    EstimatorPolicy(mode="exact"),
    EstimatorPolicy(mode="threshold", confidence=1.0),
    EstimatorPolicy(mode="threshold", confidence=0.8),
    EstimatorPolicy(mode="threshold", confidence=0.5),
]
_POLICY_IDS = ["exact", "threshold-1.0", "threshold-0.8", "threshold-0.5"]


class TestSkipModelOracle:
    """``SkipModel.price`` equals a per-position loop over the circuit."""

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    def test_split_layer_matches_oracle(self, rng, policy):
        # One block at the head size (vote-level skipping only) among
        # three with a skippable tail, a dynamic per-ones block
        # threshold, and enough vote retirement that the later blocks'
        # head order must come from the whole batch.
        def threshold(ones):
            return 1.5 + 0.25 * ones

        for _ in range(2):
            matrices, blocks, bias, bits = _layer(
                rng, (80, HEAD_ROWS, 80, 80), cols=3, density=0.2
            )
            args = (matrices, blocks, bias, threshold, 2, policy)
            out, stats = SkipModel(*args).price(bits)
            want_out, want = _oracle(*args[:5], bits, policy)
            got = (
                stats.skipped_rows,
                stats.skipped_slots,
                stats.est_positions,
                stats.est_decided,
            )
            assert got == want
            np.testing.assert_array_equal(out, want_out)

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    def test_unsplit_layer_matches_oracle(self, rng, policy):
        # Sparse, then dense and mostly positive, so tails hold more
        # than MAX_K active rows and the whole-tail bound decides.
        cases = ((100, 0.1, (-6, 7), 0.5), (140, 0.5, (-1, 7), 280.5))
        for rows, density, weights, threshold in cases:
            matrices, blocks, bias, bits = _layer(
                rng, (rows,), density=density, weights=weights
            )
            args = (matrices, blocks, bias, threshold, 1, policy)
            out, stats = SkipModel(*args).price(bits)
            want_out, want = _oracle(*args[:5], bits, policy)
            got = (
                stats.skipped_rows,
                stats.skipped_slots,
                stats.est_positions,
                stats.est_decided,
            )
            assert got == want
            np.testing.assert_array_equal(out, want_out)

    def test_exact_output_is_the_off_vote(self, rng):
        matrices, blocks, bias, bits = _layer(rng, (90, 80, 70))
        out, _ = SkipModel(
            matrices, blocks, bias, 3.5, 2, EstimatorPolicy(mode="exact")
        ).price(bits)
        fires = sum(
            (bits[:, rows] @ m + bias > 3.5).astype(int)
            for rows, m in zip(blocks, matrices)
        )
        np.testing.assert_array_equal(out, fires >= 2)

    def test_sparse_inputs_skip_work(self, rng):
        # The paper's upper-layer regime: ~5% activity, so most
        # positions run out of active tail rows and retire at the head.
        matrices, blocks, bias, bits = _layer(rng, (128,), density=0.05)
        _, stats = SkipModel(
            matrices, blocks, bias, 0.5, 1, EstimatorPolicy(mode="exact")
        ).price(bits)
        assert stats.skipped_slots > 0
        assert 0 < stats.est_decided <= stats.est_positions

    def test_threshold_skipping_monotone_in_confidence(self, rng):
        # Shrinking the interval by ``confidence`` can only move each
        # decision earlier, so skipped work is monotone as confidence
        # drops -- the invariant the campaign sweep leans on.
        matrices, blocks, bias, bits = _layer(rng, (120,), n=64)
        skipped = []
        for confidence in (1.0, 0.8, 0.5, 0.25):
            policy = EstimatorPolicy(mode="threshold", confidence=confidence)
            _, stats = SkipModel(
                matrices, blocks, bias, 0.5, 1, policy
            ).price(bits)
            skipped.append(stats.skipped_slots)
        assert skipped == sorted(skipped)

    def test_threshold_output_is_batch_invariant(self, rng):
        matrices, blocks, bias, bits = _layer(rng, (90, 80, 70), n=32)
        model = SkipModel(
            matrices, blocks, bias, 2.5, 2,
            EstimatorPolicy(mode="threshold", confidence=0.6),
        )
        whole, _ = model.price(bits)
        halves = np.concatenate(
            [model.price(bits[:11])[0], model.price(bits[11:])[0]]
        )
        np.testing.assert_array_equal(whole, halves)

    def test_empty_batch(self, rng):
        matrices, blocks, bias, _ = _layer(rng, (100,))
        out, stats = SkipModel(
            matrices, blocks, bias, 0.5, 1, EstimatorPolicy(mode="exact")
        ).price(np.zeros((0, 100)))
        assert out.shape == (0, 5)
        assert stats == SkipStats()

    def test_rejects_mismatched_blocks(self, rng):
        matrices, blocks, bias, _ = _layer(rng, (90, 80))
        with pytest.raises(ConfigurationError, match="one 2D matrix"):
            SkipModel(
                matrices, blocks[:1], bias, 0.5, 1,
                EstimatorPolicy(mode="exact"),
            )


class TestEngineGates:
    """Engines that cannot honour the contract must reject the policy."""

    def _spec(self, engine, mode="exact", **hw):
        return EngineSpec(
            name=engine,
            hardware=HardwareConfig(device=RRAMDevice(bits=4), **hw),
            estimator=EstimatorPolicy(mode=mode),
        )

    def test_adc_engine_rejects_estimator(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="estimator"):
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                self._spec("adc"),
            )

    def test_reference_engine_rejects_estimator(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="estimator-free"):
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                self._spec("reference"),
            )

    def test_temporal_aging_rejects_estimator(self, tiny_quantized):
        spec = self._spec(
            "fused", temporal=TemporalConfig(drift_nu=0.05, seed=3)
        )
        with pytest.raises(ConfigurationError, match="temporal"):
            compile_network(
                tiny_quantized.network, tiny_quantized.thresholds, spec
            )


class TestCompiledNetworkIdentity:
    """``mode='exact'`` is bit-identical to ``off`` end to end."""

    def _predict(
        self, engine, tiny_quantized, images, mode, confidence=1.0, **hw
    ):
        spec = EngineSpec(
            name=engine,
            hardware=HardwareConfig(device=RRAMDevice(bits=4), **hw),
            estimator=EstimatorPolicy(mode=mode, confidence=confidence),
        )
        compiled = compile_network(
            tiny_quantized.network, tiny_quantized.thresholds, spec
        )
        return compiled.predict(images)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_exact_matches_off_unsplit(
        self, engine, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        off = self._predict(engine, tiny_quantized, images, "off")
        exact = self._predict(engine, tiny_quantized, images, "exact")
        np.testing.assert_array_equal(off, exact)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_exact_matches_off_split(
        self, engine, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        off = self._predict(
            engine, tiny_quantized, images, "off", max_crossbar_size=128
        )
        exact = self._predict(
            engine, tiny_quantized, images, "exact", max_crossbar_size=128
        )
        np.testing.assert_array_equal(off, exact)

    def test_skip_counters_reach_metrics(self, tiny_quantized, tiny_dataset):
        # The unsplit 100-row layer has a skippable tail behind its
        # 64-row head; the split layout's 25-row blocks only retire at
        # the vote (see the engine-independence test below).
        images = tiny_dataset["test_x"][:24]
        with obs.recording() as rec:
            self._predict("fused", tiny_quantized, images, "exact")
        counters = rec.metrics.as_dict()["counters"]
        positions = sum(
            value
            for key, value in counters.items()
            if key.endswith("/est_positions")
        )
        decided = sum(
            value
            for key, value in counters.items()
            if key.endswith("/est_decided")
        )
        assert positions > 0
        assert 0 < decided <= positions
        assert (
            sum(
                value
                for key, value in counters.items()
                if key.endswith("/skipped_slots")
            )
            > 0
        )

    @pytest.mark.parametrize("hw", [{}, {"max_crossbar_size": 128}])
    def test_threshold_disagreement_grows_from_zero(
        self, hw, tiny_quantized, tiny_dataset
    ):
        # Full-confidence threshold mode keeps the entire interval, so
        # its decisions match ``off`` on every sample (on both the
        # unsplit and the split per-sample-threshold paths); shrinking
        # the confidence can only add disagreement.
        images = tiny_dataset["test_x"][:40]
        off = self._predict("fused", tiny_quantized, images, "off", **hw)
        rates = []
        for confidence in (1.0, 0.8):
            loose = self._predict(
                "fused",
                tiny_quantized,
                images,
                "threshold",
                confidence=confidence,
                **hw,
            )
            rates.append(float((off != loose).mean()))
        assert rates[0] == 0.0
        assert rates[1] >= rates[0]


class TestEngineIndependence:
    """Fused and packed price and decide identically."""

    _KEYS = (
        "skipped_rows", "skipped_slots", "est_positions", "est_decided",
        "sa_events",
    )

    def _compile(self, engine, tiny_quantized, policy, **hw):
        spec = EngineSpec(
            name=engine,
            hardware=HardwareConfig(device=RRAMDevice(bits=4), **hw),
            estimator=policy,
        )
        return compile_network(
            tiny_quantized.network, tiny_quantized.thresholds, spec
        )

    def _run(self, engine, tiny_quantized, images, policy, **hw):
        compiled = self._compile(engine, tiny_quantized, policy, **hw)
        with obs.recording() as rec:
            logits = compiled.predict(images)
        counters = {
            key: value
            for key, value in rec.metrics.as_dict()["counters"].items()
            if key.startswith("hw/layer") and key.rsplit("/", 1)[1]
            in self._KEYS
        }
        return logits, counters

    @pytest.mark.parametrize("hw", [{}, {"max_crossbar_size": 128}])
    def test_exact_counters_identical(self, hw, tiny_quantized, tiny_dataset):
        images = tiny_dataset["test_x"][:24]
        policy = EstimatorPolicy(mode="exact")
        _, fused = self._run("fused", tiny_quantized, images, policy, **hw)
        _, packed = self._run("packed", tiny_quantized, images, policy, **hw)
        assert any(key.endswith("/est_positions") for key in fused)
        assert any(key.endswith("/skipped_slots") for key in fused)
        assert fused == packed

    @pytest.mark.parametrize("hw", [{}, {"max_crossbar_size": 128}])
    def test_threshold_outputs_identical(
        self, hw, tiny_quantized, tiny_dataset
    ):
        # The modelled early bits are the estimated layer's output on
        # both engines, so everything downstream sees the same 1-bit
        # activations; the logits then differ only by the final layer's
        # float-vs-integer arithmetic, as they do with the estimator off.
        images = tiny_dataset["test_x"][:24]
        policy = EstimatorPolicy(mode="threshold", confidence=0.7)
        fused = self._compile("fused", tiny_quantized, policy, **hw)
        packed = self._compile("packed", tiny_quantized, policy, **hw)
        acts_f = fused.collect_binary_activations(images)
        acts_p = packed.collect_binary_activations(images)
        assert acts_f.keys() == acts_p.keys()
        for index in acts_f:
            np.testing.assert_array_equal(acts_f[index], acts_p[index])
        np.testing.assert_array_equal(
            fused.predict(images).argmax(axis=1),
            packed.predict(images).argmax(axis=1),
        )
        np.testing.assert_allclose(
            fused.predict(images), packed.predict(images),
            rtol=SEI_RTOL, atol=SEI_ATOL,
        )
        assert (
            self._run("fused", tiny_quantized, images, policy, **hw)[1]
            == self._run("packed", tiny_quantized, images, policy, **hw)[1]
        )
