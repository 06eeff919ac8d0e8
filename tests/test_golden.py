"""Golden outputs: 13 CLI runs on one panel, checked against a manifest and across processes.

The panel is built here from integer price ticks, written as exact
2-decimal closes, so the input bytes are the same on every CPU: no
floating-point function touches a price before it is written.

Which files are compared how, and why:

- every ``msa`` file is compared by its sha256 (``golden/msa_sha256.json``).
  Its text holds symbols, trees and sums that were the same with and
  without AVX-512 on this panel, and the test ``..._without_avx512``
  checks that on every host that can switch AVX-512 off;
- ``stats`` and ``specificity`` files are compared by value
  (``golden/stats_specificity.json``): each number within ``REL_TOL`` /
  ``ABS_TOL``, every other cell and key exactly.  Their moment sums and
  correlations are numpy reductions whose last bits change with numpy's
  SIMD level.  On this panel ``stats`` writes other bytes without AVX-512,
  and the largest change of a value is 2.5e-13 of itself, so the tolerance
  leaves more than three orders of magnitude of margin, while any change
  of data or method moves a value far more.

Every file must also be byte-identical between two fresh interpreters
with other string-hash seeds (acceptance criterion 8 across processes):
a renderer that iterated a set of codes would fail there.  One run of
the list goes through ``python -m infoflow.cli``.

After a change that alters outputs on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which files changed and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from infoflow.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12

# The runs, each into its own directory; "{index}" is the index CSV.
RANGE = ["--mode", "range", "--from", "2001-01-01", "--to", "2002-12-31"]
TURMOIL = ["--mode", "turmoil", "--crash-start", "2002-01-01", "--crash-end", "2002-03-31"]
RUNS = {
    "stats": ["stats"],
    "whole": ["msa", "--mode", "whole"],
    "whole_out": ["msa", "--mode", "whole", "--orientation", "out"],
    "range": ["msa", *RANGE],
    "range_in": ["msa", *RANGE, "--orientation", "in"],
    "yearly": ["msa", "--mode", "yearly"],
    "yearly_json_dot_in": ["msa", "--mode", "yearly", "--format", "json,dot",
                           "--orientation", "in"],
    "yearly_report_global": ["msa", "--mode", "yearly", "--report", "--global-partition"],
    "range_global": ["msa", *RANGE, "--global-partition"],
    "turmoil": ["msa", *TURMOIL],
    "turmoil_in": ["msa", *TURMOIL, "--orientation", "in"],
    "turmoil_global": ["msa", *TURMOIL, "--global-partition"],
    "specificity": ["specificity", "--index", "{index}", "--samples", "2"],
}
# The run made by ``python -m infoflow.cli``, in a process of its own.
MODULE_RUN = "whole"

# Planted lag-1 couplings (source, target, chance in 10 that the target
# repeats the source's previous tick).
COUPLINGS = ((0, 3, 7), (3, 7, 6), (5, 1, 5), (9, 11, 6))


def panel_csvs(days: int = 1461, seed: int = 17) -> tuple[str, str]:
    """Wide price CSVs of 12 sectors and of one index over ``days`` returns.

    Closes are whole cents: a random walk of integer ticks from 1000.00,
    one close a calendar day from 1999-12-31, so the returns span calendar
    2000-2003.
    """
    rng = np.random.default_rng(seed)
    ticks = rng.integers(-250, 251, size=(days, 13))
    for source, target, tenths in COUPLINGS:
        copy = rng.integers(0, 10, size=days - 1) < tenths
        ticks[1:, target] = np.where(copy, ticks[:-1, source], ticks[1:, target])
    cents = np.vstack([np.full((1, 13), 100_000), 100_000 + np.cumsum(ticks, axis=0)])
    assert cents.min() > 0
    dates = [date(1999, 12, 31) + timedelta(days=t) for t in range(days + 1)]

    def csv(codes: list[str], columns: np.ndarray) -> str:
        lines = ["date," + ",".join(codes)]
        for day, row in zip(dates, columns.tolist()):
            lines.append(day.isoformat() + "," + ",".join(f"{c // 100}.{c % 100:02d}"
                                                          for c in row))
        return "\n".join(lines) + "\n"

    return (csv([f"91{k:03d}0" for k in range(1, 13)], cents[:, :12]),
            csv(["000001"], cents[:, 12:]))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parsed(path: Path):
    """A JSON file's value, or a CSV file's rows of cells with numbers as floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``src`` on the import path, plus ``extra``."""
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def outputs(work: Path) -> tuple[dict, dict]:
    """Every run's file hashes and stats/specificity values, by run and file."""
    work.mkdir(exist_ok=True)
    panel, index = panel_csvs()
    (work / "panel.csv").write_text(panel, encoding="utf-8")
    (work / "index.csv").write_text(index, encoding="utf-8")
    hashes, values = {}, {}
    for run, argv in RUNS.items():
        out = work / run
        argv = [a.replace("{index}", str(work / "index.csv")) for a in argv]
        argv += ["--input", str(work / "panel.csv"), "--out-dir", str(out)]
        if run == MODULE_RUN:
            code = subprocess.run([sys.executable, "-m", "infoflow.cli", *argv],
                                  env=child_env(), stdout=subprocess.DEVNULL,
                                  timeout=600).returncode
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        assert code == 0, run
        files = sorted(out.iterdir())
        hashes[run] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        if argv[0] != "msa":
            values[run] = {p.name: parsed(p) for p in files}
    return hashes, values


def fresh_outputs(work: Path, **env: str) -> tuple[dict, dict, dict]:
    """``outputs`` in a new interpreter with ``env`` set, and that interpreter's CPU features."""
    script = ("import json, sys, test_golden; "
              "print(json.dumps([*test_golden.outputs(test_golden.Path(sys.argv[1])), "
              "test_golden.cpu_features()]))")
    child = subprocess.run([sys.executable, "-c", script, str(work)], cwd=TESTS,
                           env=child_env(**env), capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return tuple(json.loads(child.stdout))


def msa_hashes(hashes: dict) -> dict:
    return {run: files for run, files in hashes.items() if RUNS[run][0] == "msa"}


def close(a, b) -> bool:
    """Equal structure, numbers within the tolerance, everything else equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        return numbers and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def read(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def assert_golden(hashes: dict, values: dict) -> None:
    assert msa_hashes(hashes) == read("msa_sha256")
    golden = read("stats_specificity")
    assert {run: sorted(files) for run, files in values.items()} == {
        run: sorted(files) for run, files in golden.items()}
    for run, files in values.items():
        for name, value in files.items():
            assert close(value, golden[run][name]), f"{run}/{name}"


def test_outputs_match_the_golden_manifest(tmp_path):
    assert_golden(*outputs(tmp_path))


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    first, second = (fresh_outputs(tmp_path / seed, PYTHONHASHSEED=seed)[0] for seed in "12")
    assert first == second
    assert msa_hashes(first) == read("msa_sha256")


def cpu_features() -> dict:
    """The CPU features numpy dispatches on in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _avx512_switch_missing() -> str | None:
    """Why AVX-512 cannot be switched off for a child process here, or None."""
    features = cpu_features()
    if "X86_V4" not in features:
        return f"numpy {np.__version__} has no X86_V4 feature group"
    if not features.get("AVX512_SKX"):
        return "this CPU lacks AVX512_SKX, so its outputs are the ones without AVX-512"
    return None


def test_outputs_match_the_golden_manifest_without_avx512(tmp_path):
    reason = _avx512_switch_missing()
    if reason:
        pytest.skip(reason)
    hashes, values, features = fresh_outputs(tmp_path, NPY_DISABLE_CPU_FEATURES="X86_V4")
    assert not features["AVX512_SKX"], "NPY_DISABLE_CPU_FEATURES=X86_V4 left AVX512_SKX on"
    assert_golden(hashes, values)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        hashes, stats = outputs(Path(tmp))
    for name, manifest in (("msa_sha256", msa_hashes(hashes)), ("stats_specificity", stats)):
        (GOLDEN / f"{name}.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                             encoding="utf-8")
        print(GOLDEN / f"{name}.json")
