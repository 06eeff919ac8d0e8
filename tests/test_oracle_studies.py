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
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["msa", "--input", str(csv), "--mode", mode, "--q", str(q),
                         "--format", "csv,json,dot", "--out-dir", str(out)])
        if code == 0:
            event("written")
            assert oracle.check_study(out, mode, codes, dates, closes, q, MIN_WINDOW_DAYS) == []
        else:
            event("refused")
            lines = errors.getvalue().splitlines()
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert WINDOW.search(lines[0]), lines[0]
