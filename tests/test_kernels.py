"""Numpy path kernels agree with the scalar recurrences they implement, and
the edge counter without a grid with the binary search."""

import numpy as np
import pytest

from inforate import _kernels
from inforate._rng import make_rng


@pytest.fixture(scope="module")
def rng():
    return make_rng(99)


def test_ar1_paths_agree(rng):
    z = rng.normal(0.0, 1.0, 20_000)
    x0, a = 0.25, 0.85
    ref = [x0]
    for zk in z:
        ref.append(a * ref[-1] + zk)
    got = _kernels.ar1_path(x0, a, z)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_cyclic_paths_agree_on_the_circle(rng):
    steps = rng.uniform(-0.4, 0.4, 20_000)
    m = 1.0
    x = ((0.1 + m) % (2.0 * m)) - m
    ref = [x]
    for s in steps:
        x = ((x + s + m) % (2.0 * m)) - m
        ref.append(x)
    got = _kernels.cyclic_path(0.1, steps, m)
    # compare circular distance: cumulative-sum rounding may wrap a value
    # on the other side of the seam
    d = np.abs(((got - np.array(ref) + m) % (2.0 * m)) - m)
    assert d.max() <= 1e-9
    assert np.all((got >= -m) & (got < m))


def test_alternating_paths_identical(rng):
    blocks = rng.integers(0, 2, 10_000).astype(np.float64)
    offsets = rng.uniform(0.0, 1.0, 10_000)
    x0 = 2.3
    parity = int(np.floor(x0)) % 2
    ref = [x0]
    for blk, off in zip(blocks, offsets):
        parity = (parity + 1) % 2
        ref.append(2.0 * blk + parity + off)
    np.testing.assert_array_equal(
        _kernels.alternating_blocks_path(x0, blocks, offsets), ref
    )


def test_pair_counts_agree_and_match_histogram2d(rng):
    nb = 37
    ix = rng.integers(0, nb, 100_000)
    iy = rng.integers(0, nb, 100_000)
    got = _kernels.pair_counts(ix, iy, nb)
    ref = np.zeros((nb, nb), dtype=np.int64)
    for i, j in zip(ix.tolist(), iy.tolist()):
        ref[i, j] += 1
    np.testing.assert_array_equal(got, ref)
    hist, _, _ = np.histogram2d(ix, iy, bins=[np.arange(nb + 1), np.arange(nb + 1)])
    np.testing.assert_array_equal(got, hist.astype(np.int64))


def test_kernels_run_on_short_inputs():
    z = np.zeros(10)
    assert _kernels.ar1_path(1.0, 0.5, z).shape == (11,)
    assert _kernels.cyclic_path(0.0, z, 1.0).shape == (11,)
    assert _kernels.alternating_blocks_path(0.5, z, z).shape == (11,)
    assert _kernels.pair_counts(np.zeros(5, np.int64), np.zeros(5, np.int64), 3)[
        0, 0
    ] == 5
    # a path of length one is its start point
    empty = np.zeros(0)
    assert _kernels.ar1_path(1.0, 0.5, empty).tolist() == [1.0]
    assert _kernels.cyclic_path(0.5, empty, 1.0).tolist() == [0.5]
    assert _kernels.alternating_blocks_path(0.5, empty, empty).tolist() == [0.5]


@pytest.mark.parametrize(
    "edges",
    [[], [0.25], [0.25, 0.25, 0.25]],
    ids=["none", "one", "repeated"],
)
@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_one_cell_edge_counter_is_the_binary_search(rng, edges, dtype):
    # no grid fits fewer than two distinct edges: every value meets every edge
    edges = np.array(edges, dtype=float)
    values = np.concatenate(
        [
            rng.normal(0.0, 2.0, 5000),
            np.nextafter(edges, -np.inf),
            edges,
            np.nextafter(edges, np.inf),
            [0.0, -0.0, -1e308, 1e308],
        ]
    )
    ref = np.searchsorted(edges, values, side="right")
    out = np.full(values.size, 99, dtype)  # every entry is written
    _kernels.edge_counter(edges, dtype)(values, out)
    np.testing.assert_array_equal(out, ref)
