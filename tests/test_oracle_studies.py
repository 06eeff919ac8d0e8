"""CLI studies on small seeded panels, checked by the benchmark's output oracle.

``bench/oracle.py`` recomputes every window's transfer entropies and
net flows on its own and compares each written tree with networkx's
maximum spanning arborescence.  It is loaded from its file, unchanged, so
the same checks guard the benchmark runs and these small panels.  Its
``check_study`` knows the whole-sample and yearly studies; for a date
range and for turmoil windows these tests pick each window's return rows
themselves and check the written trees with the oracle's parts.  The
benchmark's tracer is loaded the same way, to show that it still finds
and reads every library function it wraps.
"""

import contextlib
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import infoflow.cli
from infoflow.analysis import MIN_WINDOW_DAYS
from infoflow.arborescence import ORIENTATIONS, max_spanning_arborescence
from infoflow.cli import main
from infoflow.entropy import dai_matrix, te_matrix
from infoflow.network import build_network
from infoflow.symbolize import encode, make_partition
from infoflow.timeseries import load_dataset, returns_panel

nx = pytest.importorskip("networkx")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where the tracer's dataclasses look up their types
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
panel = _load("panel")

# A failed window is reported on one line that names it.
WINDOW = re.compile(r"\b(whole sample|year \d{4}|range \S+ to \S+"
                    r"|(before|during|after) window)\b")


# Return laws that every study's property draws.  At q = 15 the bench panel's
# two clusters of returns take 4 symbols; Student-t (df = 3) returns take
# about 12, with heavy tails; the tie-heavy closes sit on four price
# levels, so a quarter of all returns are exactly zero and the others take
# 12 distinct values, in 11 symbols.
LAWS = ("bench", "student-t", "ties")
TIE_LEVELS = np.array([100.0, 101.0, 103.0, 106.0])


def law_closes(law, closes, seed):
    """Closes of the same shape as the bench panel's ``closes``, drawn by ``law``."""
    if law == "bench":
        return closes
    rng = np.random.default_rng(seed)
    if law == "student-t":
        steps = 0.01 * rng.standard_t(3, size=closes.shape)
        steps[0] = 0.0
        return 100.0 * np.exp(np.cumsum(steps, axis=0))
    return TIE_LEVELS[rng.integers(len(TIE_LEVELS), size=closes.shape)]


def write_panel(tmp, n, days, seed, law="bench"):
    """A seeded panel as a CSV in ``tmp``, with its codes, dates and closes.

    Codes and dates are the bench panel's; the closes follow ``law``.
    """
    codes, dates, closes = panel.make_panel(n, days, seed)
    closes = law_closes(law, closes, seed)
    csv = Path(tmp) / "panel.csv"
    csv.write_text(panel.panel_csv(codes, dates, closes), encoding="utf-8")
    return csv, codes, dates, closes


def refused(code, lines):
    """A refusal is exit 2 with one ``error:`` line that names the window."""
    event("refused")
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert WINDOW.search(lines[0]), lines[0]


def dot_edges(path):
    """The (source, target) display labels of a DOT file's edges."""
    return re.findall(r'^  "(\w+)" -> "(\w+)"', path.read_text(encoding="utf-8"), re.M)


def run_msa(csv, out, *options):
    """Exit status and stderr lines of one ``msa`` run writing every format."""
    errors = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
        code = main(["msa", "--input", str(csv), *map(str, options),
                     "--format", "csv,json,dot", "--out-dir", str(out)])
    return code, errors.getvalue().splitlines()


@pytest.mark.parametrize("mode", ["whole", "yearly"])
@settings(deadline=None, max_examples=40)
@given(n=st.integers(3, 28), years=st.integers(1, 3), last=st.integers(30, 261),
       q=st.integers(2, 15), seed=st.integers(0, 2**16), law=st.sampled_from(LAWS))
def test_msa_outputs_pass_the_bench_oracle(mode, n, years, last, q, seed, law):
    # 261 weekdays a year, then ``last`` days in the final year: short final
    # years have many tied pairs, which can leave no root reaching every sector.
    days = 261 * (years - 1) + last
    event(law)
    with tempfile.TemporaryDirectory() as tmp:
        csv, codes, dates, closes = write_panel(tmp, n, days, seed, law)
        out = Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, lines = run_msa(csv, out, "--mode", mode, "--q", q)
        if code == 0:
            event("written")
            assert oracle.check_study(out, mode, codes, dates, closes, q, MIN_WINDOW_DAYS) == []
        else:
            refused(code, lines)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(3, 28), days=st.integers(60, 600), first=st.integers(0, 2**16),
       length=st.integers(20, 600), q=st.integers(2, 15), seed=st.integers(0, 2**16),
       law=st.sampled_from(LAWS))
def test_range_outputs_pass_the_bench_oracle(n, days, first, length, q, seed, law):
    # The range covers return rows first..last, dated by their later close.
    first %= days - 20
    last = min(first + length, days) - 1
    event(law)
    with tempfile.TemporaryDirectory() as tmp:
        csv, codes, dates, closes = write_panel(tmp, n, days, seed, law)
        out = Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, lines = run_msa(csv, out, "--mode", "range", "--q", q,
                                  "--from", dates[first + 1], "--to", dates[last + 1])
        if code != 0:
            refused(code, lines)
            return
        event("written")
        assert {p.name for p in out.iterdir()} == {"msa_range.csv"} | {
            f"msa_range_{o}.{ext}" for o in oracle.ORIENTATIONS for ext in ("json", "dot")}
        returns = np.diff(np.log(closes), axis=0)
        dai, problems = oracle.window_flows(returns[first:last + 1], q, "range")
        for o in oracle.ORIENTATIONS:
            doc = json.loads((out / f"msa_range_{o}.json").read_text(encoding="utf-8"))
            problems += oracle.check_tree(f"range {o}", codes, dai, q, o, doc["root"],
                                          doc["edges"])
        assert problems == []


@settings(deadline=None, max_examples=40)
@given(n=st.integers(3, 28), crash_days=st.integers(5, 80), spare=st.integers(0, 100),
       offset=st.integers(0, 100), q=st.integers(2, 15), seed=st.integers(0, 2**16),
       law=st.sampled_from(LAWS))
def test_turmoil_outputs_pass_the_bench_oracle(n, crash_days, spare, offset, q, seed, law):
    # The crash covers return rows start..start+T-1; the windows before,
    # during and after it are the 2T rows from start-3T, start-T and start+T.
    t = crash_days
    start = 3 * t + min(offset, spare)
    event(law)
    with tempfile.TemporaryDirectory() as tmp:
        csv, codes, dates, closes = write_panel(tmp, n, 6 * t + spare, seed, law)
        out = Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, lines = run_msa(csv, out, "--mode", "turmoil", "--q", q,
                                  "--crash-start", dates[start + 1],
                                  "--crash-end", dates[start + t])
        if code != 0:
            refused(code, lines)
            return
        event("written")
        labels = {"before": -3, "during": -1, "after": 1}
        assert {p.name for p in out.iterdir()} == {"turmoil.csv", "turmoil.json"} | {
            f"turmoil_{label}_{o}.dot" for label in labels for o in oracle.ORIENTATIONS}
        doc = json.loads((out / "turmoil.json").read_text(encoding="utf-8"))
        returns = np.diff(np.log(closes), axis=0)
        index = {c[-3:]: k for k, c in enumerate(codes)}
        problems = []
        for label, k in labels.items():
            rows = returns[start + k * t:start + (k + 2) * t]
            dai, bad = oracle.window_flows(rows, q, label)
            problems += bad
            for o in oracle.ORIENTATIONS:
                total = doc["windows"][label][o]["total_weight_bits"]
                if abs(total - oracle._nx_total(dai, o)) > oracle.TOL:
                    problems.append(f"{label} {o}: tree weight {total!r}, not the maximum")
                edges = dot_edges(out / f"turmoil_{label}_{o}.dot")
                if len(edges) != n - 1:
                    problems.append(f"{label} {o}: {len(edges)} DOT edges for {n} sectors")
                problems += [f"{label} {o}: edge {a}->{b} against the oracle's net flow"
                             for a, b in edges if not dai[index[a], index[b]] > 0]
        assert problems == []


def test_sector_suspended_for_a_year(tmp_path):
    # Sector 910030 trades flat from the last close of 2000 through 2001 and
    # then resumes with its own returns, so its 2001 returns are all zero
    # and every other return is unchanged.
    codes, dates, closes = panel.make_panel(6, 3 * 261, seed=5)
    year = [k for k, d in enumerate(dates) if d.year == 2001]
    closes[year[-1] + 1:, 2] *= closes[year[0] - 1, 2] / closes[year[-1], 2]
    closes[year[0] - 1:year[-1] + 1, 2] = closes[year[0] - 1, 2]
    csv = tmp_path / "panel.csv"
    csv.write_text(panel.panel_csv(codes, dates, closes), encoding="utf-8")

    code, lines = run_msa(csv, tmp_path / "yearly", "--mode", "yearly", "--q", 10)
    assert (code, lines) == (2, [
        "error: sector 910030, year 2001: degenerate series: constant values"])

    # Against whole-sample bin edges the flat year is one symbol: every pair
    # with the sector ties, so no edge and no root reaches it, and the
    # refusal names it as a part of its own, beside the other sectors' source.
    with pytest.warns(UserWarning, match="5 tied pair"):
        code, lines = run_msa(csv, tmp_path / "global", "--mode", "yearly", "--q", 10,
                              "--global-partition")
    assert (code, lines) == (2, [
        "error: year 2001 (261 trading days, 5 tied pairs): no root reaches all nodes: "
        "the network splits into parts rooted at sectors 910030, 910060"])

    code, lines = run_msa(csv, tmp_path / "whole", "--mode", "whole", "--q", 10)
    assert (code, lines) == (0, [])
    assert oracle.check_study(tmp_path / "whole", "whole", codes, dates, closes, 10,
                              MIN_WINDOW_DAYS) == []


def test_dropped_pairs_are_exact_ties_and_each_tree_is_maximal(tmp_path):
    # The program drops six pairs of this panel, each with equal transfer
    # entropies both ways.  The oracle's own float net flows put 4.9e-16 on
    # two of them, and its maximum (3.02593 for the outgoing tree) uses one
    # of these edges, so it fails this input although the program's tree is
    # the maximum on the network the program builds.
    csv, *_ = write_panel(tmp_path, 23, 30, 23, "student-t")
    returns = returns_panel(load_dataset(csv))
    te = te_matrix(encode(returns, make_partition(returns, 2)))
    with pytest.warns(UserWarning, match="dropped 6 tied pair"):
        net = build_network(returns.sectors, dai_matrix(te))
    assert all(te[i, j] == te[j, i] for i, j in net.ties)
    for o in ORIENTATIONS:
        weight = {(i, j) if o == "outgoing" else (j, i): w for i, j, w in net.edges}
        graph = nx.DiGraph()
        graph.add_weighted_edges_from((u, v, w) for (u, v), w in weight.items())
        # networkx 3.6 moves the weights of ``graph`` by rounding errors, so
        # the maximum is summed from the network's own weights.
        best = nx.maximum_spanning_arborescence(graph)
        expected = math.fsum(weight[e] for e in best.edges)
        tree = max_spanning_arborescence(net, o)
        assert tree.total_weight == pytest.approx(expected, rel=0, abs=1e-12)


def test_bench_tracer_finds_and_reads_every_function_it_wraps(tmp_path):
    # The bench's tracer wraps library functions by the names their callers
    # use and reads counters off their results; a renamed function or a
    # changed result shape would leave a bench metric unmeasured.
    tracer = _load("tracer")
    n = 6
    csv, *_ = write_panel(tmp_path, n, 3 * 261, 601)
    traced = tracer.Tracer()
    for study, mode in enumerate(("yearly", "whole")):
        traced.study = study
        with traced.installed(), warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            # Through the module attribute, which the tracer patches, as bench/worker.py calls it.
            assert infoflow.cli.main(["msa", "--input", str(csv), "--mode", mode,
                                      "--out-dir", str(tmp_path / mode)]) == 0
    assert traced.absent == [] and traced.counter_errors == set()
    metrics = tracer.layer_metrics(traced, [0, 1])
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["analysis.windows"] == (3 + 1) / 2
    assert (metrics["network.edges"] + metrics["network.tied_pairs"]
            == metrics["analysis.windows"] * n * (n - 1) / 2)
