"""Cross-cutting property-based tests on the core invariants.

Each property here encodes a statement from the paper's derivations:
if one fails, the reproduction's maths is wrong somewhere.

All random streams derive from the suite-wide base seed via the
session-scoped ``derived_rng`` factory fixture (see ``conftest.py``);
the hypothesis-drawn ``seed`` is a stream *key*, not a raw RNG seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DynamicThresholdMatrix,
    LinearTransform,
    Partition,
    SEIMatrix,
    SplitDecision,
    SplitMatrix,
    binarize,
    block_mean_distance,
    decompose_weights,
    natural_partition,
    or_pool,
)
from repro.nn.functional import maxpool2d

pytestmark = pytest.mark.property


def _matrix(make_rng, seed, rows, cols, scale=1.0):
    return make_rng(seed).normal(size=(rows, cols)) * scale


def _bits(make_rng, seed, n, rows, density):
    return (make_rng(seed, 1).random((n, rows)) < density).astype(float)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(2, 30),
    cols=st.integers(1, 6),
)
def test_sei_reconstruction_bounded_by_lsb(derived_rng, seed, rows, cols):
    """Property: SEI's effective weights differ from the target by at
    most half an 8-bit LSB of the matrix's own range."""
    weights = _matrix(derived_rng, seed, rows, cols)
    sei = SEIMatrix(weights, max_crossbar_size=1 << 16)
    lsb = np.abs(weights).max() / 255
    assert np.abs(sei.effective_weights - weights).max() <= lsb / 2 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(2, 25),
    density=st.floats(0.0, 1.0),
)
def test_sei_compute_is_linear_in_input_rows(derived_rng, seed, rows, density):
    """Property: Equ. 6 is a sum over selected rows, so computing with
    the union of two disjoint selections equals the sum of the parts."""
    weights = _matrix(derived_rng, seed, rows, 3)
    sei = SEIMatrix(weights, max_crossbar_size=1 << 16)
    rng = derived_rng(seed)
    a = (rng.random(rows) < density).astype(float)
    b = ((rng.random(rows) < density) * (1 - a)).astype(float)  # disjoint
    combined = np.clip(a + b, 0, 1)
    np.testing.assert_allclose(
        sei.compute(combined),
        sei.compute(a) + sei.compute(b),
        atol=1e-10,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(4, 40),
    blocks=st.integers(2, 4),
    density=st.floats(0.05, 0.9),
)
def test_split_block_sums_partition_the_total(
    derived_rng, seed, rows, blocks, density
):
    """Property: block partial sums add up to the unsplit MVM exactly."""
    if blocks > rows:
        return
    weights = _matrix(derived_rng, seed, rows, 4)
    split = SplitMatrix(
        weights, natural_partition(rows, blocks), SplitDecision(0.0)
    )
    bits = _bits(derived_rng, seed, 8, rows, density)
    np.testing.assert_allclose(
        split.block_sums(bits).sum(axis=1), bits @ weights, atol=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(4, 40),
    blocks=st.integers(2, 4),
)
def test_vote_monotone_in_threshold(derived_rng, seed, rows, blocks):
    """Property: raising the vote requirement can only clear bits."""
    if blocks > rows:
        return
    weights = np.abs(_matrix(derived_rng, seed, rows, 3))
    partition = natural_partition(rows, blocks)
    bits = _bits(derived_rng, seed, 20, rows, 0.4)
    previous = None
    for vote in range(1, blocks + 1):
        split = SplitMatrix(
            weights,
            partition,
            SplitDecision(block_threshold=0.5, vote_threshold=vote),
        )
        fired = split.fire(bits)
        if previous is not None:
            assert np.all(fired <= previous)
        previous = fired


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(2, 30),
    threshold=st.floats(0.0, 0.5),
)
def test_dynamic_threshold_equivalence(derived_rng, seed, rows, threshold):
    """Property: Equ. 9 == Equ. 4 — the unipolar structure makes the
    same decisions as direct signed thresholding of the weights it
    stores, ``k * (stored_q - w0)`` (Equ. 7 on the quantized cells)."""
    weights = _matrix(derived_rng, seed, rows, 4, scale=0.1)
    matrix = DynamicThresholdMatrix(
        weights, threshold=threshold, max_crossbar_size=1 << 16
    )
    bits = _bits(derived_rng, seed, 60, rows, 0.3)
    hw = matrix.fire(bits)
    stored_q = matrix.stored_sum(np.eye(rows))
    recovered = matrix.transform.k * (stored_q - matrix._w0_cell)
    sw = binarize(bits @ recovered, threshold)
    np.testing.assert_array_equal(hw, sw)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), rows=st.integers(2, 40))
def test_linear_transform_inverse_property(derived_rng, seed, rows):
    weights = _matrix(derived_rng, seed, rows, 3)
    transform = LinearTransform.for_weights(weights)
    np.testing.assert_allclose(
        transform.recover(transform.store(weights)), weights, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    h=st.integers(2, 10),
    threshold=st.floats(0.05, 0.95),
)
def test_quantize_pool_commutation_property(derived_rng, seed, h, threshold):
    """Property (§3.1): binarize-then-OR == pool-then-binarize."""
    values = derived_rng(seed).random((2, 3, 2 * h, 2 * h))
    quantize_first = or_pool(binarize(values, threshold), 2)
    pooled, _ = maxpool2d(values, 2)
    pool_first = binarize(pooled, threshold)
    np.testing.assert_array_equal(quantize_first, pool_first)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    rows=st.integers(2, 20),
    weight_bits=st.sampled_from([4, 8]),
    cell_bits=st.sampled_from([1, 2, 4]),
)
def test_decompose_weights_reconstruction_property(
    derived_rng, seed, rows, weight_bits, cell_bits
):
    """Property: the slice decomposition reconstructs within half an LSB
    for every (weight_bits, cell_bits) tiling."""
    if weight_bits % cell_bits != 0:
        return
    weights = _matrix(derived_rng, seed, rows, 3)
    slices, coefficients, scale = decompose_weights(
        weights, weight_bits, cell_bits
    )
    cell_max = 2**cell_bits - 1
    recon = sum(
        c * s * cell_max for c, s in zip(coefficients, slices)
    ) * scale
    lsb = np.abs(weights).max() / (2**weight_bits - 1)
    assert np.abs(recon - weights).max() <= lsb / 2 + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 300),
    rows=st.integers(4, 24),
    blocks=st.integers(2, 3),
)
def test_block_distance_zero_iff_equal_means(derived_rng, seed, rows, blocks):
    """Property: Equ. 10 is zero exactly when the block means agree."""
    if blocks > rows:
        return
    rng = derived_rng(seed)
    # Construct a matrix of identical rows: any partition has distance 0.
    row = rng.normal(size=(1, 4))
    matrix = np.tile(row, (rows, 1))
    p = natural_partition(rows, blocks)
    assert block_mean_distance(matrix, p) == pytest.approx(0.0, abs=1e-12)
    # Perturb one row: distance becomes positive.
    matrix[0] += 1.0
    assert block_mean_distance(matrix, p) > 0.0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 300),
    rows=st.integers(4, 16),
    blocks=st.integers(2, 4),
)
def test_partition_blocks_are_a_partition(derived_rng, seed, rows, blocks):
    """Property: blocks are disjoint and cover every row once."""
    if blocks > rows:
        return
    rng = derived_rng(seed)
    p = Partition(rng.permutation(rows), blocks)
    concatenated = np.concatenate(p.blocks())
    assert sorted(concatenated.tolist()) == list(range(rows))
    sizes = [len(b) for b in p.blocks()]
    assert max(sizes) - min(sizes) <= 1
