"""Seeded token mutants of ``src/infoflow``, each run against tier-1.

A mutant changes one token of one module: a comparison flips (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``), a ``+`` and a ``-`` swap, or
an integer literal grows by 1.  ``synth`` and ``__init__`` are left out.
The runner copies the repository into a temporary directory, checks that
tier-1 passes there unmutated, then writes each mutant into the copy in
turn and runs tier-1 with ``-x``.  A mutant is killed when a test fails,
survives when all pass, and times out after three times the unmutated run.
The working tree is never written.

    python tests/mutants.py --seed 32 --count 40 --function aligned_dates

draws 40 mutants with the seed, adds every mutant inside a function named
``aligned_dates``, and prints one line per mutant and then the totals.  A
survivor in ``EQUIVALENT`` is reported as equivalent: no input can tell it
from the original.  This is a tool, not a test; tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/infoflow")
SKIPPED = {"synth.py", "__init__.py"}
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+"}

# Mutants no test can kill, by module and mutated line (stripped).
EQUIVALENT = {
    # The placeholders are overwritten before they are read; the root's is never read.
    ("arborescence.py", "best_eid.append(-2)"),
    ("arborescence.py", "best_eid = [+1] * n_nodes"),
    # A contracted cycle's members stay on the walk.  Later steps reach them
    # only through find(), and a nested contraction that takes them in again
    # enters each of them more cheaply through the cycle node, so the tree is
    # the same; only the work grows.
    ("arborescence.py", "del walk[len(walk) + len(cycle):]"),
    # Two root-to-leaf trails never have equal keys: their node lists differ.
    ("arborescence.py", "if best_key is None or key <= best_key:"),
    # The default's line number is discarded.
    ("timeseries.py", "_, header = next(records, (2, None))"),
    # Drops the digit check of the year's third character: numpy's
    # datetime64 parse already refuses every byte the columnar path lets
    # through there.
    ("timeseries.py", "digits = chars[:, [0, 1, 3, 3, 5, 6, 8, 9]]"),
}


class Mutant(NamedTuple):
    module: str
    line: int
    col: int
    old: str
    new: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        lines[self.line - 1] = text[:self.col] + self.new + text[self.col + len(self.old):]
        return "".join(lines)

    def mutated_line(self, source: str) -> str:
        return self.apply(source).splitlines()[self.line - 1].strip()


def candidates(module: str, source: str) -> list[Mutant]:
    """Every mutant of ``source`` that still compiles."""
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in SWAPS:
            new = SWAPS[tok.string]
        elif tok.type == tokenize.NUMBER and tok.string.replace("_", "").isdigit():
            new = str(int(tok.string) + 1)
        else:
            continue
        mutant = Mutant(module, tok.start[0], tok.start[1], tok.string, new)
        try:
            compile(mutant.apply(source), module, "exec")
        except SyntaxError:
            continue
        found.append(mutant)
    return found


def function_lines(source: str, names: set[str]) -> set[int]:
    """The lines of every function in ``source`` whose name is in ``names``."""
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
            for line in range(node.lineno, node.end_lineno + 1)}


def run_tier1(tree: Path, seed: int, timeout: float | None) -> tuple[str, float, str]:
    """(outcome, seconds, first failing test) of tier-1 with ``-x`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", f"--hypothesis-seed={seed}"]
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carried over
    start = time.perf_counter()
    # A session of its own, so that a timeout also stops the test's children.
    child = subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "timed out", time.perf_counter() - start, ""
    failed = next((line.split(" - ")[0] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    return ("survived" if child.returncode == 0 else "killed"), time.perf_counter() - start, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the sample and seeds Hypothesis (default 0)")
    parser.add_argument("--count", type=int, default=40, help="mutants to draw (default 40)")
    parser.add_argument("--function", action="append", default=[],
                        help="also run every mutant inside functions of this name")
    args = parser.parse_args(argv)

    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / PACKAGE).glob("*.py")) if p.name not in SKIPPED}
    pool = [m for module, source in sources.items() for m in candidates(module, source)]
    chosen = set(random.Random(args.seed).sample(pool, min(args.count, len(pool))))
    for module, source in sources.items():
        lines = function_lines(source, set(args.function))
        chosen.update(m for m in pool if m.module == module and m.line in lines)
    print(f"{len(chosen)} of {len(pool)} mutants, seed {args.seed}", flush=True)

    with tempfile.TemporaryDirectory(prefix="infoflow-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", "*.egg-info"))
        outcome, seconds, failed = run_tier1(tree, args.seed, None)
        if outcome != "survived":
            print(f"tier-1 fails unmutated ({failed}); no mutant run", file=sys.stderr)
            return 1
        timeout = 3 * seconds
        print(f"unmutated tier-1 passes in {seconds:.1f} s; timeout {timeout:.0f} s", flush=True)

        totals = {"killed": 0, "survived": 0, "timed out": 0, "equivalent": 0}
        for m in sorted(chosen):
            target = tree / PACKAGE / m.module
            source = sources[m.module]
            target.write_text(m.apply(source), encoding="utf-8")
            try:
                outcome, seconds, failed = run_tier1(tree, args.seed, timeout)
            finally:
                target.write_text(source, encoding="utf-8")
            if outcome == "survived" and (m.module, m.mutated_line(source)) in EQUIVALENT:
                outcome = "equivalent"
            totals[outcome] += 1
            print(f"{outcome:<10} {m.module}:{m.line}:{m.col} {m.old} -> {m.new}  "
                  f"{seconds:5.1f} s  {failed or m.mutated_line(source)}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
