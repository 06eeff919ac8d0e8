"""Property tests of the pipeline: loading, symbolization, date windows, TE
invariance, the TE kernel's triplet columns, bounds, the arborescence
refusal on networks with no root, CLI outputs under a permutation of the
input's sector columns, and CLI runs on damaged input files."""

import codecs
import contextlib
import functools
import io
import math
import tempfile
import warnings
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import flow_matrix

from infoflow import timeseries
from infoflow.analysis import MIN_WINDOW_DAYS, yearly_reports
from infoflow.arborescence import ORIENTATIONS, max_spanning_arborescence
from infoflow.cli import main
from infoflow.entropy import _te_columns, dai_matrix, te_matrix
from infoflow.network import InfoFlowNetwork
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

# The last five are near-ISO forms: ``datetime64`` reads some, ``date.fromisoformat`` none.
BAD_DATES = st.sampled_from(["", " ", "2000/01/04", "20000104", "2000-13-01", "x", '"2000-01-04"',
                             "2000-01", "+2000-01-03", "0000-01-03", "2000-01-031", "2000-1-03"])

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
    if fault == "blank":  # blank rows anywhere, the whole body included
        k = draw(st.integers(0, len(rows)))
        blank = st.sampled_from(["", " ", "\t", "," * n]).map(lambda cell: [cell])
        rows[k:k] = draw(st.lists(blank, min_size=1, max_size=3))
    elif rows and fault:
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "wide":
            rows[k].append(draw(cells))
        elif fault == "narrow":
            rows[k].pop()
        elif fault == "bad date":
            rows[k][0] = draw(BAD_DATES)
        else:  # a repeated date
            rows[k][0] = rows[k - 1][0]
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
            result = ([s.sector for s in series], series[0].dates.tolist(),
                      np.stack([s.closes for s in series]).tobytes())
    return result, [str(w.message) for w in caught]


@pytest.mark.seeded
@settings(deadline=None, max_examples=200)
@given(price_csv_texts())
@example("date,801010\n")  # a header-only body
@example("date,801010,801020\r\n\r\n\n")  # a body of blank rows only
@example("date,801010\n2000-01-04,1.0\n2000-01-05,1.5\n2000-01-05,2.0\n")  # a repeated date
def test_columnar_loader_equals_the_row_path(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode())
        fast = timeseries._read_columns(path)
        event("columnar" if fast is not None else "row by row")
        if fast is not None:
            rows = timeseries._read_rows(path)
            assert fast.codes == rows.codes and np.array_equal(fast.dates, rows.dates)
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
def date_axes(draw):
    """Strictly increasing date axes: gaps of 1-10 days over 30-900 calendar days.

    Each axis starts before a New Year's Day and ends after it, so it
    crosses 2-4 calendar years.  The largest gap an axis may take is drawn
    too, so that dense and sparse axes are both common.
    """
    span = draw(st.integers(30, 900))
    new_year = date(draw(st.integers(1991, 2030)), 1, 1)
    start = new_year - timedelta(days=draw(st.integers(1, span - 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.integers(1, draw(st.integers(1, 10)) + 1, size=span)
    offsets = np.concatenate([[0], np.cumsum(gaps)])
    return np.datetime64(start, "D") + offsets[offsets < span]


@pytest.mark.seeded
@settings(deadline=None)
@given(date_axes(), st.integers(1, 3), st.data())
def test_slice_keeps_the_columns_a_date_filter_keeps(dates, n, data):
    panel = Panel(sectors(n), dates, np.arange(n * len(dates), dtype=float).reshape(n, -1))
    first, last = dates[[0, -1]].tolist()
    days = st.integers(-20, (last - first).days + 20).map(lambda k: first + timedelta(days=k))
    interval = lo, hi = data.draw(days), data.draw(days)
    keep = [k for k, day in enumerate(dates.tolist()) if lo <= day <= hi]
    if lo > hi:
        with pytest.raises(ValueError, match="^empty interval$"):
            slice_returns(panel, interval)
    elif not keep:
        with pytest.raises(ValueError, match="^empty result$"):
            slice_returns(panel, interval)
    else:
        out = slice_returns(panel, interval)
        assert out.dates.tolist() == [dates.tolist()[k] for k in keep]
        assert np.array_equal(out.values, panel.values[:, keep])


@pytest.mark.seeded
@settings(deadline=None)
@given(date_axes(), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_yearly_windows_are_the_years_with_enough_days(dates, n, seed):
    # Each sector repeats the previous sector's return of the day before, so
    # each drives the next and every year that is kept has a tree.
    base = np.random.default_rng(seed).normal(0.0, 0.01, len(dates) + n - 1)
    values = np.stack([base[n - 1 - i:len(base) - i] for i in range(n)])
    returns = Panel(sectors(n), dates, values)
    counts = sorted(Counter(day.year for day in dates.tolist()).items())
    kept = [year for year, days in counts if days >= MIN_WINDOW_DAYS]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kept:
            windows = yearly_reports(returns, q=3)
        else:
            with pytest.raises(ValueError, match="no calendar year has the minimum"):
                yearly_reports(returns, q=3)
            windows = []
    assert [w.label for w in windows] == [str(year) for year in kept]
    for w in windows:
        year = [day for day in dates.tolist() if day.year == int(w.label)]
        assert w.interval == (year[0], year[-1])
    assert [str(w.message) for w in caught if "skipping year" in str(w.message)] == [
        f"skipping year {year}: only {days} trading day(s)"
        for year, days in counts if days < MIN_WINDOW_DAYS]


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


@pytest.mark.seeded
@settings(deadline=None)
@given(symbol_matrices(), st.data())
def test_te_kernel_counts_a_multiset_of_triplet_columns(matrix, data):
    # te_matrix hands the kernel the L - 1 (now, next) columns of one
    # series; any order of those columns, moved together in both arrays,
    # gives the same bits.  The drawn q may exceed every symbol.
    symbols, q = matrix
    now, nxt = symbols[:, :-1], symbols[:, 1:]
    te = te_matrix(symbols)
    assert np.array_equal(te, _te_columns(now, nxt, q))
    order = np.asarray(data.draw(st.permutations(range(now.shape[1]))), dtype=np.intp)
    assert np.array_equal(te, _te_columns(now[:, order], nxt[:, order], q))


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


@st.composite
def tied_networks(draw):
    """Networks of 1-8 sectors whose pairs are edges either way or exact ties."""
    n = draw(st.integers(1, 8))
    flows = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5]), st.floats(0.01, 1.0))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = draw(flows)
            if w:
                edges.append((i, j, w) if draw(st.booleans()) else (j, i, w))
    return InfoFlowNetwork(tuple(SectorMeta(str(900001 + k)) for k in range(n)),
                           flow_matrix(n, edges))


@pytest.mark.seeded
@settings(deadline=None, max_examples=200)
@given(tied_networks(), st.sampled_from(ORIENTATIONS))
def test_no_root_refusal_names_one_sector_of_each_source_part(net, orientation):
    # The parts are the strongly connected components of the oriented graph
    # (reversed for incoming trees); a source part is one no edge enters.
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(net.sectors)))
    graph.add_edges_from((i, j) if orientation == "outgoing" else (j, i)
                         for i, j, _ in net.edges)
    parts = nx.condensation(graph)
    sources = [parts.nodes[c]["members"] for c in parts if parts.in_degree(c) == 0]
    try:
        tree = max_spanning_arborescence(net, orientation)
    except ValueError as exc:
        prefix = "no root reaches all nodes: the network splits into parts rooted at sectors "
        assert str(exc).startswith(prefix)
        codes = [s.code for s in net.sectors]
        named = [codes.index(code) for code in str(exc)[len(prefix):].split(", ")]
        assert named == sorted(set(named))
        assert sorted(next(k for k, part in enumerate(sources) if v in part)
                      for v in named) == list(range(len(sources)))
        assert len(sources) > 1
    else:
        assert len(sources) == 1 and tree.root in sources[0]


# Runs whose every output file lists sectors in code order, never by column:
# each msa mode, stats, and specificity against an index file of its own.
RUNS = {
    "whole": ["msa", "--mode", "whole"],
    "yearly": ["msa", "--mode", "yearly"],
    "range": ["msa", "--mode", "range", "--from", "2001-03-01", "--to", "2002-09-30"],
    "turmoil": ["msa", "--mode", "turmoil", "--crash-start", "2002-01-01",
                "--crash-end", "2002-03-31"],
    "stats": ["stats"],
    "specificity": ["specificity", "--samples", "3"],
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


def run_outputs(csv_text: str, run: str) -> dict[str, bytes]:
    """Every file one CLI run writes for the CSV, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(csv_text, encoding="utf-8")
        argv = [*RUNS[run], "--input", str(path)]
        if run == "specificity":  # the unpermuted file's fourth sector, in every run
            index = Path(tmp) / "index.csv"
            index.write_text(permute_columns(unpermuted_csv(), [3]), encoding="utf-8")
            argv += ["--index", str(index)]
        if run != "stats":
            argv += ["--q", "15"]
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv, "--format", "csv,json,dot", "--out-dir", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}


@functools.lru_cache(maxsize=None)
def unpermuted_outputs(run: str) -> dict[str, bytes]:
    return run_outputs(unpermuted_csv(), run)


def permute_columns(csv_text: str, order) -> str:
    """The CSV whose k-th sector column is column ``order[k]`` of ``csv_text``."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    return "".join(",".join([row[0]] + [row[1 + k] for k in order]) + "\n" for row in rows)


@pytest.mark.seeded
@pytest.mark.parametrize("mode", sorted(RUNS))
@settings(deadline=None, max_examples=3)
@given(order=st.permutations(range(N_PERMUTED)))
def test_msa_outputs_do_not_depend_on_column_order(mode, order):
    # Every panel holds its sectors in code order, so every file of every
    # run (msa, stats and specificity alike) is byte-identical.
    want = unpermuted_outputs(mode)
    got = run_outputs(permute_columns(unpermuted_csv(), order), mode)
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        assert data == want[name], name


# The input contract over damaged files: the golden panel and index with a
# few bytes replaced, deleted or inserted.  A run either exits 2 with one
# ``error:`` line and writes nothing, or exits 0 having written exactly the
# files it prints.  Tie and dropped-row warnings may come either way.
MUTATION_BYTES = [bytes([b]) for b in b'0123456789.,-+eE\r\n \t"naNA'] + [codecs.BOM_UTF8]
MUTATED_RUNS = {
    "stats": ["stats"],
    "whole": ["msa", "--mode", "whole"],
    "yearly": ["msa", "--mode", "yearly"],
    "range": ["msa", "--mode", "range", "--from", "2001-01-01", "--to", "2002-12-31"],
    "turmoil": ["msa", "--mode", "turmoil", "--crash-start", "2002-01-01",
                "--crash-end", "2002-03-31"],
    "specificity": ["specificity", "--samples", "2"],
}


@functools.lru_cache(maxsize=1)
def golden_inputs() -> dict[str, bytes]:
    from test_golden import panel_csvs

    panel, index = panel_csvs()
    return {"panel": panel.encode(), "index": index.encode()}


@st.composite
def mutated_inputs(draw):
    """The golden panel and index after 1-4 byte replacements, deletions or insertions."""
    files = dict(golden_inputs())
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(["panel", "panel", "panel", "index"]))
        data = files[name]
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["replace", "delete", "insert"]))
        new = b"" if kind == "delete" else draw(st.sampled_from(MUTATION_BYTES))
        files[name] = data[:at] + new + data[at + (kind != "insert"):]
    return files


@pytest.mark.seeded
@settings(deadline=None, max_examples=200)
@given(mutated_inputs(), st.sampled_from(sorted(MUTATED_RUNS)), st.sampled_from([2, 5, 15]),
       st.sampled_from(["out", "in", "both"]), st.booleans())
def test_damaged_input_exits_2_on_one_line_or_writes_what_it_prints(files, run, q,
                                                                    orientation, global_edges):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / f"{name}.csv").write_bytes(data)
        out = tmp / "out"
        argv = [*MUTATED_RUNS[run], "--input", str(tmp / "panel.csv"), "--out-dir", str(out)]
        if run == "specificity":
            argv += ["--index", str(tmp / "index.csv"), "--q", str(q)]
        elif run != "stats":
            argv += ["--q", str(q), "--orientation", orientation]
            argv += ["--global-partition"] * global_edges
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True)):
            warnings.simplefilter("always")
            code = main(argv)
        event(f"exit {code}")
        if code == 2:
            line = stderr.getvalue()
            assert stdout.getvalue() == ""
            assert line.startswith("error: ")
            assert line.count("\n") == 1 and line.endswith("\n")
            assert "codec can't decode" not in line
            if "no root reaches all nodes" in line:
                assert len(line.partition(" rooted at sectors ")[2].split(", ")) >= 2
            assert not out.exists()
        else:
            assert code == 0 and stderr.getvalue() == ""
            printed = stdout.getvalue().splitlines()
            assert printed and all(Path(p).stat().st_size > 0 for p in printed)
            assert sorted(printed) == sorted(str(p) for p in out.iterdir())
