"""Property tests of the pipeline: loading, symbolization, TE invariance, bounds,
and CLI outputs under a permutation of the input's sector columns."""

import contextlib
import functools
import io
import math
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infoflow import timeseries
from infoflow.cli import main
from infoflow.entropy import dai_matrix, te_matrix
from infoflow.symbolize import encode, make_partition
from infoflow.synth import Coupling, Segment, SyntheticDataset, dataset_to_csv, generate_dataset
from infoflow.timeseries import (
    DatasetError,
    Panel,
    SectorMeta,
    load_dataset,
    slice_returns,
)

PRICES = st.floats(1e-300, 1e300)

# Price cells the columnar path can take: shortest reprs, long mantissas,
# exponents, a leading "+", integers, and any plain decimal (zero and
# overflow to inf included, which only the row path may report).
CLEAN_CELLS = st.one_of(
    PRICES.map(repr),
    PRICES.map(lambda x: f"{x:.25e}"),
    st.floats(1e-6, 1e6).map(lambda x: f"+{x:.22f}"),
    st.integers(1, 10**30).map(str),
    st.from_regex(r"\+?[0-9]{0,25}\.?[0-9]{1,25}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)

# Cells only the row path reads: padding, missing tokens, quotes, text
# ``float`` and ``np.loadtxt`` disagree on, separators ``splitlines`` sees.
DIRTY_CELLS = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", " \t"]), CLEAN_CELLS,
              st.sampled_from(["", " ", "\t"])).map("".join),
    st.sampled_from(["", " ", "nan", "NaN", "+nan", "NA", "na", "null", "NULL", "None",
                     "inf", "-inf", "1e999", "0", "-0", "-1.5", "1.5#x", "1_000", "\u0661\u0662",
                     "1\u20282", "1\x0b2", "\x0b", "abc", '"', "1e", "--1", "."]),
    CLEAN_CELLS.map(lambda text: f'"{text}"'),
)

BAD_DATES = st.sampled_from(["", " ", "2000/01/04", "20000104", "2000-13-01", "x", '"2000-01-04"'])

# Each fault kind is drawn on its own, so that a file often has no fault and
# a fault often comes alone: bad cells and a lone CR one time in eight each,
# a header fault three times in eight and a row fault five times in eight.
FAULT = st.sampled_from([False] * 7 + [True])
ROW_FAULT = st.sampled_from([None] * 3 + ["wide", "narrow", "bad date", "repeated date", "blank"])
# The last code quoted, opening a quote that runs to the end of the file, or
# followed by a lone CR and one more cell.
HEADER_FAULT = st.sampled_from([None] * 5 + ['"{}"', '"{}', "{}\r0"])


@st.composite
def price_csv_texts(draw):
    """Wide price CSVs, from clean files to every form the row path must read."""
    n = draw(st.integers(1, 4))
    cells = st.one_of(CLEAN_CELLS, DIRTY_CELLS) if draw(FAULT) else CLEAN_CELLS
    header = ["date"] + [str(801010 + 10 * k) for k in range(n)]
    header_fault = draw(HEADER_FAULT)
    if header_fault:
        header[-1] = header_fault.format(header[-1])
    day = date(2000, 1, 3) + timedelta(days=draw(st.integers(0, 5000)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        day += timedelta(days=draw(st.integers(1, 4)))
        rows.append([day.isoformat()] + [draw(cells) for _ in range(n)])
    fault = draw(ROW_FAULT)
    if rows and fault:
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "wide":
            rows[k].append(draw(cells))
        elif fault == "narrow":
            rows[k].pop()
        elif fault == "bad date":
            rows[k][0] = draw(BAD_DATES)
        elif fault == "repeated date":
            rows[k][0] = rows[k - 1][0]
        else:
            rows.insert(k, [draw(st.sampled_from(["", " ", "\t", "," * n]))])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) + newline for row in [header] + rows]
    if draw(FAULT):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].rstrip("\r\n") + "\r"
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix(newline)
    return ("\ufeff" if draw(st.booleans()) else "") + text


def load_outcome(path):
    """What ``load_dataset`` gives for ``path``: series or error, then warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            series = load_dataset(path)
        except DatasetError as exc:
            result = str(exc)
        else:
            result = ([s.sector for s in series], series[0].dates,
                      np.stack([s.closes for s in series]).tobytes())
    return result, [str(w.message) for w in caught]


@settings(deadline=None, max_examples=200)
@given(price_csv_texts())
def test_columnar_loader_equals_the_row_path(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode())
        fast = timeseries._read_columns(path)
        event("columnar" if fast is not None else "row by row")
        if fast is not None:
            rows = timeseries._read_rows(path)
            assert fast.codes == rows.codes and fast.dates == rows.dates
            assert fast.dropped == rows.dropped == 0
            assert fast.closes.shape == rows.closes.shape
            assert np.array_equal(fast.closes, rows.closes)
        loaded = load_outcome(path)
        with mock.patch.object(timeseries, "_read_columns", return_value=None):
            assert loaded == load_outcome(path)


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
    """Row i of ``panel`` as a 1-row panel."""
    return Panel(panel.sectors[i:i + 1], panel.dates, panel.values[i:i + 1])


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
    symbols = encode(panel, partition)
    for i in range(len(panel.sectors)):
        r = row_series(panel, i)
        assert np.array_equal(symbols[i], encode(r, make_partition(r, q))[0])


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
    symbols = encode(slice_returns(panel, interval), partition)
    for i in range(len(panel.sectors)):
        whole = row_series(panel, i)
        want = encode(slice_returns(whole, interval), make_partition(whole, q))[0]
        assert np.array_equal(symbols[i], want)


@st.composite
def symbol_matrices(draw, max_n=6, max_len=60):
    n = draw(st.integers(2, max_n))
    length = draw(st.integers(2, max_len))
    q = draw(st.integers(2, 8))
    symbols = draw(arrays(np.int64, (n, length), elements=st.integers(1, q)))
    return symbols, q


@settings(deadline=None)
@given(symbol_matrices(), st.data(), st.integers(0, 40))
def test_te_is_unchanged_by_relabelling_the_alphabet(matrix, data, shift):
    # Each row gets its own bijection of 1..q; counts only move within
    # their groups, and the exact coefficient sums do not see the order.
    # Shifting every symbol up widens the alphabet by symbols that never
    # occur, which add no counts.
    symbols, q = matrix
    relabelled = np.stack([
        np.asarray(data.draw(st.permutations(range(1, q + 1))))[row - 1]
        for row in symbols
    ])
    before = te_matrix(symbols)
    assert np.array_equal(before, te_matrix(relabelled))
    assert np.array_equal(before, te_matrix(relabelled + shift))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 99), length=st.integers(2, 300), q=st.integers(2, 15),
       fill=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_dai_antisymmetric_and_te_bounded(n, length, q, fill, seed):
    # ``fill`` caps how many of the q symbols occur, from constant rows to all.
    symbols = np.random.default_rng(seed).integers(1, min(fill, q) + 1, size=(n, length))
    te = te_matrix(symbols)
    assert np.all(np.diag(te) == 0.0)
    # The same rounding allowance as acceptance criterion 3.
    assert np.all(te >= -1e-12)
    assert np.all(te <= math.log2(q) + 1e-12)
    dai = dai_matrix(te)
    assert np.array_equal(dai, -dai.T)


# msa studies whose every output file names sectors by code, never by column.
MSA_MODES = {
    "whole": ["--mode", "whole"],
    "yearly": ["--mode", "yearly"],
    "range": ["--mode", "range", "--from", "2001-03-01", "--to", "2002-09-30"],
    "turmoil": ["--mode", "turmoil", "--crash-start", "2002-01-01", "--crash-end", "2002-03-31"],
}
N_PERMUTED = 12


@functools.lru_cache(maxsize=1)
def unpermuted_csv() -> str:
    """Four calendar years of 12 sectors with a few planted couplings."""
    couplings = (Coupling(0, 3, 0.7), Coupling(3, 7, 0.6), Coupling(5, 1, 0.5),
                 Coupling(9, 11, 0.6), Coupling(2, 10, 0.4))
    spec = SyntheticDataset(n_sectors=N_PERMUTED, segments=(Segment(1461, couplings),),
                            seed=17, start=date(1999, 12, 31))
    return dataset_to_csv(generate_dataset(spec))


def msa_outputs(csv_text: str, mode: str) -> dict[str, bytes]:
    """Every file one ``msa`` study writes for the CSV, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(csv_text, encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["msa", "--input", str(path), *MSA_MODES[mode], "--q", "15",
                         "--format", "csv,json,dot", "--out-dir", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}


@functools.lru_cache(maxsize=None)
def unpermuted_outputs(mode: str) -> dict[str, bytes]:
    return msa_outputs(unpermuted_csv(), mode)


def permute_columns(csv_text: str, order) -> str:
    """The CSV whose k-th sector column is column ``order[k]`` of ``csv_text``."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    return "".join(",".join([row[0]] + [row[1 + k] for k in order]) + "\n" for row in rows)


@pytest.mark.parametrize("mode", sorted(MSA_MODES))
@settings(deadline=None, max_examples=3)
@given(order=st.permutations(range(N_PERMUTED)))
def test_msa_outputs_do_not_depend_on_column_order(mode, order):
    # Only the degree heatmaps list sectors in input order; with their
    # columns put back in the original order they match too.
    want = unpermuted_outputs(mode)
    got = msa_outputs(permute_columns(unpermuted_csv(), order), mode)
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        if name.startswith("degree_heatmap_"):
            back = np.argsort(order)
            data = permute_columns(data.decode(), back).encode()
        assert data == want[name], name
