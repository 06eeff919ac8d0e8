"""Golden outputs: 13 CLI runs on one panel, checked against a manifest and across processes.

The panel is built here from integer price ticks, written as exact
2-decimal closes, so the input bytes are the same on every CPU: no
floating-point function touches a price before it is written.

Every file of every run is compared by its sha256 against one manifest,
``golden/sha256.json``.  The outputs depend only on the input bytes and
the options, at any numpy SIMD level: returns take their logs in
``np.longdouble``, the moments are products and the TE kernel's prime
logs come from libm.  So the same manifest holds

- in this process;
- in two fresh interpreters with other string-hash seeds (acceptance
  criterion 8 across processes): a renderer that iterated a set of codes
  would fail there.  One run of the list goes through
  ``python -m infoflow.cli``;
- in a fresh interpreter with numpy's AVX-512 loops switched off, on
  every host that can switch them off.

After a change that alters outputs on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which files changed and why.
"""

import contextlib
import hashlib
import io
import json
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
MANIFEST = TESTS / "golden" / "sha256.json"

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


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``src`` on the import path, plus ``extra``."""
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def outputs(work: Path) -> dict:
    """Every run's file hashes, by run and file."""
    work.mkdir(exist_ok=True)
    panel, index = panel_csvs()
    (work / "panel.csv").write_text(panel, encoding="utf-8")
    (work / "index.csv").write_text(index, encoding="utf-8")
    hashes = {}
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
        hashes[run] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())}
    return hashes


def child_stdout(code: str, *args: str, **env: str) -> str:
    """The stdout of ``python -c code *args``, run in ``tests`` with ``env`` set."""
    child = subprocess.run([sys.executable, "-c", code, *args], cwd=TESTS,
                           env=child_env(**env), capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return child.stdout


def fresh_outputs(work: Path, **env: str) -> tuple[dict, dict]:
    """``outputs`` in a new interpreter with ``env`` set, and that interpreter's CPU features."""
    script = ("import json, sys, test_golden; "
              "print(json.dumps([test_golden.outputs(test_golden.Path(sys.argv[1])), "
              "test_golden.cpu_features()]))")
    return tuple(json.loads(child_stdout(script, str(work), **env)))


def golden() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_outputs_match_the_golden_manifest(tmp_path):
    assert outputs(tmp_path) == golden()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    first, second = (fresh_outputs(tmp_path / seed, PYTHONHASHSEED=seed)[0] for seed in "12")
    assert first == second == golden()


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


def run_without_avx512(code: str, *args: str) -> str:
    """The stdout of ``python -c code *args`` in a child with numpy's AVX-512 loops off.

    Skips the calling test where this host cannot switch them off.
    """
    reason = _avx512_switch_missing()
    if reason:
        pytest.skip(reason)
    return child_stdout(code, *args, NPY_DISABLE_CPU_FEATURES="X86_V4")


def test_outputs_match_the_golden_manifest_without_avx512(tmp_path):
    reason = _avx512_switch_missing()
    if reason:
        pytest.skip(reason)
    hashes, features = fresh_outputs(tmp_path, NPY_DISABLE_CPU_FEATURES="X86_V4")
    assert not features["AVX512_SKX"], "NPY_DISABLE_CPU_FEATURES=X86_V4 left AVX512_SKX on"
    assert hashes == golden()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = outputs(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(hashes, indent=1) + "\n", encoding="utf-8")
    print(MANIFEST)
