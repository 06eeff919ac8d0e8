"""CLI studies on small seeded panels, checked by the benchmark's output oracle.

``bench/oracle.py`` recomputes every window's transfer entropies and
net flows on its own and compares each written tree with networkx's
maximum spanning arborescence.  It is loaded from its file, unchanged, so
the same checks guard the benchmark runs and these small panels.
"""

import contextlib
import importlib.util
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from infoflow.analysis import MIN_WINDOW_DAYS
from infoflow.cli import main

pytest.importorskip("networkx")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
panel = _load("panel")

# A failed window is reported on one line that names it.
WINDOW = re.compile(r"\b(whole sample|year \d{4})\b")


def run_msa(csv, out, *options):
    """Exit status and stderr lines of one ``msa`` run writing every format."""
    errors = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
        code = main(["msa", "--input", str(csv), *map(str, options),
                     "--format", "csv,json,dot", "--out-dir", str(out)])
    return code, errors.getvalue().splitlines()


@pytest.mark.parametrize("mode", ["whole", "yearly"])
@settings(deadline=None, max_examples=40)
@given(n=st.integers(3, 12), years=st.integers(1, 3), last=st.integers(30, 261),
       q=st.integers(2, 15), seed=st.integers(0, 2**16))
def test_msa_outputs_pass_the_bench_oracle(mode, n, years, last, q, seed):
    # 261 weekdays a year, then ``last`` days in the final year: short final
    # years have many tied pairs, which can leave no root reaching every sector.
    days = 261 * (years - 1) + last
    codes, dates, closes = panel.make_panel(n, days, seed)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "panel.csv"
        csv.write_text(panel.panel_csv(codes, dates, closes), encoding="utf-8")
        out = Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, lines = run_msa(csv, out, "--mode", mode, "--q", q)
        if code == 0:
            event("written")
            assert oracle.check_study(out, mode, codes, dates, closes, q, MIN_WINDOW_DAYS) == []
        else:
            event("refused")
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert WINDOW.search(lines[0]), lines[0]


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
    # refusal names it.
    with pytest.warns(UserWarning, match="5 tied pair"):
        code, lines = run_msa(csv, tmp_path / "global", "--mode", "yearly", "--q", 10,
                              "--global-partition")
    assert (code, lines) == (2, [
        "error: sector 910030, year 2001 (261 trading days, 5 tied pairs): "
        "no root reaches all nodes"])

    code, lines = run_msa(csv, tmp_path / "whole", "--mode", "whole", "--q", 10)
    assert (code, lines) == (0, [])
    assert oracle.check_study(tmp_path / "whole", "whole", codes, dates, closes, 10,
                              MIN_WINDOW_DAYS) == []
