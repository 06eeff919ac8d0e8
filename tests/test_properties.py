"""Property tests of the panel pipeline: symbolization, TE invariance, bounds."""

import math
from datetime import date, timedelta

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infoflow.entropy import dai_matrix, te_matrix
from infoflow.symbolize import Partition, SymbolPanel, encode, make_partition
from infoflow.timeseries import Panel, ReturnSeries, SectorMeta, slice_returns


def sectors(n):
    return tuple(SectorMeta(str(900001 + k)) for k in range(n))


@st.composite
def return_panels(draw, max_n=6, max_len=40):
    """Panels of arbitrary finite returns, constant and subnormal ranges included."""
    n = draw(st.integers(2, max_n))
    length = draw(st.integers(2, max_len))
    values = draw(arrays(np.float64, (n, length),
                         elements=st.floats(-1.0, 1.0, allow_nan=False)))
    dates = tuple(date(2000, 1, 3) + timedelta(days=t) for t in range(length))
    return Panel(sectors(n), dates, values)


def row_series(panel, i):
    return ReturnSeries(panel.sectors[i], panel.dates, panel.values[i])


def partition_or_error(r, q):
    try:
        return make_partition(r, q)
    except ValueError as exc:
        return str(exc)


def panel_partition(panel, q):
    """The panel's partition; if it fails, some row alone fails the same way."""
    whole = partition_or_error(panel, q)
    rows = [partition_or_error(row_series(panel, i), q) for i in range(len(panel.sectors))]
    if isinstance(whole, str):
        assert whole in rows
    else:
        assert not any(isinstance(p, str) for p in rows)
    return whole


@settings(deadline=None)
@given(return_panels(), st.integers(2, 20))
def test_panel_symbols_equal_per_series_encoding(panel, q):
    partition = panel_partition(panel, q)
    assume(not isinstance(partition, str))
    symbols = encode(panel, partition).symbols
    for i in range(len(panel.sectors)):
        r = row_series(panel, i)
        assert np.array_equal(symbols[i], encode(r, make_partition(r, q)).symbols)


@settings(deadline=None)
@given(return_panels(), st.integers(2, 20), st.data())
def test_window_symbols_under_the_global_partition(panel, q, data):
    # A window encoded against whole-sample edges, as --global-partition does.
    length = len(panel.dates)
    lo = data.draw(st.integers(0, length - 1))
    hi = data.draw(st.integers(lo + 1, length))
    interval = (panel.dates[lo], panel.dates[hi - 1])
    partition = panel_partition(panel, q)
    assume(not isinstance(partition, str))
    symbols = encode(slice_returns(panel, interval), partition).symbols
    for i in range(len(panel.sectors)):
        whole = row_series(panel, i)
        want = encode(slice_returns(whole, interval), make_partition(whole, q)).symbols
        assert np.array_equal(symbols[i], want)


@st.composite
def symbol_matrices(draw, max_n=6, max_len=60):
    n = draw(st.integers(2, max_n))
    length = draw(st.integers(2, max_len))
    q = draw(st.integers(2, 8))
    symbols = draw(arrays(np.int64, (n, length), elements=st.integers(1, q)))
    return symbols, q


def symbol_panel(symbols, q):
    partition = Partition(q=q, x_min=0.0, x_max=float(q))
    return SymbolPanel(sectors(len(symbols)), partition, symbols)


@settings(deadline=None)
@given(symbol_matrices(), st.data())
def test_te_is_unchanged_by_relabelling_the_alphabet(matrix, data):
    # Each row gets its own bijection of 1..q; counts only move within
    # their groups, and the exact coefficient sums do not see the order.
    symbols, q = matrix
    relabelled = np.stack([
        np.asarray(data.draw(st.permutations(range(1, q + 1))))[row - 1]
        for row in symbols
    ])
    before = te_matrix(symbol_panel(symbols, q)).te
    after = te_matrix(symbol_panel(relabelled, q)).te
    assert np.array_equal(before, after)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 99), length=st.integers(2, 300), q=st.integers(2, 15),
       fill=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_dai_antisymmetric_and_te_bounded(n, length, q, fill, seed):
    # ``fill`` caps how many of the q symbols occur, from constant rows to all.
    symbols = np.random.default_rng(seed).integers(1, min(fill, q) + 1, size=(n, length))
    te = te_matrix(symbol_panel(symbols, q))
    assert np.all(np.diag(te.te) == 0.0)
    # The same rounding allowance as acceptance criterion 3.
    assert np.all(te.te >= -1e-12)
    assert np.all(te.te <= math.log2(q) + 1e-12)
    dai = dai_matrix(te).dai
    assert np.array_equal(dai, -dai.T)
