"""Contracts every SEI engine shares over one set of layer plans.

* One activity recorder: ``fused``, ``packed`` and ``reference`` record
  identical ``hw/layer*`` counters, gauges and row-activity histograms
  on every layer kind (DAC, one-block merge, K-block merge, split);
  only ``packed`` adds ``popcount_events``.
* One input check at the network boundary: non-finite values and wrong
  shapes raise :class:`~repro.errors.ShapeError` on every engine, and an
  empty batch returns empty logits.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.engines import EngineSpec, compile_network
from repro.core.hardware_network import HardwareConfig
from repro.errors import ShapeError
from repro.serve.session import InferenceSession, SessionConfig

#: max_crossbar_size -> (blocks, digital_merge) of the tiny network's
#: layers 3 (100 logical rows) and 7 (128 logical rows, the classifier).
LAYOUTS = {
    512: {3: (1, 0), 7: (1, 0)},  # two one-block merges
    128: {3: (4, 1), 7: (4, 0)},  # a split and a K-block merge
}


def _recorded(engine, tiny_quantized, images, max_crossbar_size):
    compiled = compile_network(
        tiny_quantized.network,
        tiny_quantized.thresholds,
        EngineSpec(
            name=engine,
            hardware=HardwareConfig(max_crossbar_size=max_crossbar_size),
        ),
    )
    with obs.recording() as rec:
        compiled.predict(images)
    exported = rec.metrics.as_dict()
    return {
        kind: {
            name: value
            for name, value in exported.get(kind, {}).items()
            if name.startswith("hw/layer")
            and not name.endswith("/popcount_events")
        }
        for kind in ("counters", "gauges", "histograms")
    }


@pytest.mark.parametrize("max_crossbar_size", sorted(LAYOUTS))
def test_engines_record_identical_activity(
    tiny_quantized, tiny_dataset, max_crossbar_size
):
    images = tiny_dataset["test_x"][:32]
    fused = _recorded("fused", tiny_quantized, images, max_crossbar_size)
    gauges = fused["gauges"]
    # Layer 0 is the DAC-driven input layer: every row counts as active.
    assert fused["counters"]["hw/layer0/active_rows"] == (
        fused["counters"]["hw/layer0/positions"] * gauges["hw/layer0/rows"]
    )
    for index, (blocks, digital) in LAYOUTS[max_crossbar_size].items():
        assert gauges[f"hw/layer{index}/blocks"] == blocks
        assert gauges[f"hw/layer{index}/digital_merge"] == digital
    for engine in ("packed", "reference"):
        assert _recorded(
            engine, tiny_quantized, images, max_crossbar_size
        ) == fused, engine


@pytest.mark.parametrize("engine", ["fused", "packed", "reference", "adc"])
def test_input_checked_once_at_the_boundary(
    engine, tiny_quantized, tiny_dataset
):
    session = InferenceSession.from_artifacts(
        tiny_quantized.network,
        tiny_quantized.thresholds,
        SessionConfig(network="tiny", engine=EngineSpec(name=engine)),
    )
    images = tiny_dataset["test_x"][:4]
    for bad in (np.nan, np.inf, -np.inf):
        patched = images.copy()
        patched[:, :, 10:14, 10:14] = bad
        with pytest.raises(ShapeError, match="finite"):
            session.infer_batch(patched)
    with pytest.raises(ShapeError, match="shape"):
        session.infer_batch(images[:, :, :20, :20])
    empty = session.infer_batch(images[:0])
    assert empty.shape == (0, session.num_classes)
    assert session.infer_batch(images).shape == (4, session.num_classes)
