"""Hot numeric kernels over pre-drawn random arrays.

Each kernel is a numpy expression of a scalar recurrence; given the same
draws it returns the same path, so sampled paths are reproducible given
(seed, stream).
"""

import numpy as np


def ar1_path(x0, a, z):
    """AR(1) recurrence x[k+1] = a*x[k] + z[k] from x[0] = x0."""
    # scipy.signal costs most of the package's import time; load it on use
    from scipy.signal import lfilter

    out = np.empty(z.size + 1)
    out[0] = x0
    if z.size:
        out[1:], _ = lfilter([1.0], [1.0, -a], z, zi=np.array([a * x0]))
    return out


def cyclic_path(x0, steps, m):
    """Cyclic walk x[k+1] = wrap(x[k] + steps[k]) onto [-m, m)."""
    out = np.empty(steps.size + 1)
    out[0] = x0
    if steps.size:
        # wrapping commutes with addition, so one cumsum plus a final
        # wrap reproduces the stepwise recurrence exactly up to rounding
        out[1:] = x0 + np.cumsum(steps)
    return ((out + m) % (2.0 * m)) - m


def alternating_blocks_path(x0, blocks, offsets):
    """Block-alternating chain on [0, 4): the block parity flips every step."""
    out = np.empty(blocks.size + 1)
    out[0] = x0
    if blocks.size:
        parity0 = int(np.floor(x0)) & 1
        parity = (parity0 + 1 + np.arange(blocks.size)) % 2
        out[1:] = 2.0 * blocks + parity + offsets
    return out


def pair_counts(ix, iy, nbins):
    """nbins x nbins joint counts of paired bin indices, of any integer
    dtype; they are combined in a widened copy, so narrow labels cannot
    overflow."""
    codes = ix.astype(np.intp)
    codes *= nbins
    codes += iy
    return np.bincount(codes, minlength=nbins * nbins).reshape(nbins, nbins)


_COUNT_BLOCK = 1 << 16
# cells of the edge table per edge: a cell then rarely holds more than one
_CELLS_PER_EDGE = 8
# each edge of the fullest cell costs one compare pass, about 2.5 ms per
# 10^6 values against about 75 ms for a binary search; past this many the
# gain is under half, and the binary search bounds the cost
_MAX_CELL_EDGES = 16


def edge_counter(edges, dtype):
    """A function ``count(values, out)`` that writes into ``out`` (of
    ``dtype``) ``np.searchsorted(edges, values, side="right")``, the
    number of the sorted finite ``edges`` at or below each finite value of
    the 1-D ``values``, counted block by block.

    A uniform grid over the edges puts each value in a cell; the count is
    the edges in earlier cells plus those of its own cell that it
    reaches.  The cell is a monotone function of the value, made of
    correctly rounded operations, so an edge in an earlier cell is below
    the value and one in a later cell above it: only the cell's own edges
    need comparing, and the count is exact.  Where no grid can be laid
    (fewer than two distinct edges, or a span or scale that overflows)
    all values share one cell, and each is compared against every edge;
    where a cell holds too many edges the count is the binary search
    itself.
    """
    count = _unblocked_counter(edges, dtype)

    def blocked(values, out):
        for i in range(0, values.size, _COUNT_BLOCK):
            count(values[i : i + _COUNT_BLOCK], out[i : i + _COUNT_BLOCK])

    return blocked


def _unblocked_counter(edges, dtype):
    n_cells = _CELLS_PER_EDGE * edges.size
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = n_cells / (edges[-1] - edges[0]) if edges.size else 0.0
    if not (np.isfinite(scale) and scale > 0.0):
        if edges.size > _MAX_CELL_EDGES:
            return _binary_search(edges)

        def count_one_cell(values, out):
            out[...] = 0
            for edge in edges:
                out += values >= edge

        return count_one_cell

    def cells(values):
        with np.errstate(over="ignore"):
            t = values - edges[0]
            t *= scale
        np.clip(t, 0.0, n_cells - 1.0, out=t)  # before the cast: no overflow
        return t.astype(np.intp)

    edge_cells = cells(edges)
    per_cell = np.bincount(edge_cells, minlength=n_cells)
    width = per_cell.max()
    if width > _MAX_CELL_EDGES:
        return _binary_search(edges)
    base = np.zeros(n_cells, dtype)
    np.cumsum(per_cell[:-1], out=base[1:])
    # own[j, c]: the j-th edge of cell c, padded with inf (reached by none)
    own = np.full((width, n_cells), np.inf)
    own[np.arange(edges.size) - base[edge_cells], edge_cells] = edges

    def count(values, out):
        c = cells(values)
        np.take(base, c, out=out)
        for row in own:
            out += values >= row.take(c)

    return count


def _binary_search(edges):
    """``edge_counter``'s ``count`` as one binary search per value."""

    def search(values, out):
        out[...] = np.searchsorted(edges, values, side="right")

    return search
