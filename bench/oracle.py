"""Output checks for one CLI study, independent of infoflow's internals.

The checker reads only the input panel and the files the CLI wrote.  It
recomputes each window's transfer entropies with its own plug-in estimator
(entropy decomposition over bincounts), builds the net-flow network, and
compares every written tree against ``networkx.maximum_spanning_arborescence``
on that network.  A refactor of the program therefore cannot weaken these
checks, and only the CLI's file formats are assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import date
from pathlib import Path

import networkx as nx
import numpy as np

TOL = 1e-9
ORIENTATIONS = ("outgoing", "incoming")


def _xlogx(counts: np.ndarray) -> np.ndarray:
    x = counts.astype(np.float64)
    return x * np.log2(np.maximum(x, 1.0))


def symbols(returns: np.ndarray, q: int) -> np.ndarray:
    """Window-local equal-width symbols 0..q-1, one column per sector."""
    lo, hi = returns.min(axis=0), returns.max(axis=0)
    raw = np.floor((returns - lo) / ((hi - lo) / q)).astype(np.int64)
    return np.minimum(raw, q - 1)


def te_oracle(sym: np.ndarray, q: int) -> np.ndarray:
    """te[i, j]: lag-1 symbolic transfer entropy from sector i to j, in bits.

    N * TE = sum xlogx(n_abc) - sum xlogx(n_ab) - sum xlogx(n_bc) + sum xlogx(n_b)
    with a = target next, b = target now, c = source now.
    """
    length, n = sym.shape
    now, nxt = sym[:-1], sym[1:]
    offsets = np.arange(n)
    te = np.zeros((n, n))
    for j in range(n):
        ab = nxt[:, j] * q + now[:, j]
        abc = (ab[:, None] * q + now) + offsets * q**3
        bc = (now[:, j][:, None] * q + now) + offsets * q**2
        h_abc = _xlogx(np.bincount(abc.ravel(), minlength=n * q**3).reshape(n, -1)).sum(axis=1)
        h_bc = _xlogx(np.bincount(bc.ravel(), minlength=n * q**2).reshape(n, -1)).sum(axis=1)
        h_ab = _xlogx(np.bincount(ab)).sum()
        h_b = _xlogx(np.bincount(now[:, j])).sum()
        te[:, j] = (h_abc - h_ab - h_bc + h_b) / (length - 1)
    np.fill_diagonal(te, 0.0)
    return te


def _nx_total(dai: np.ndarray, orientation: str) -> float:
    """Maximum spanning arborescence weight of the net-flow network."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(dai)))
    for i, j in zip(*np.nonzero(dai > 0)):
        if orientation == "outgoing":
            graph.add_edge(int(i), int(j), weight=float(dai[i, j]))
        else:
            graph.add_edge(int(j), int(i), weight=float(dai[i, j]))
    tree = nx.maximum_spanning_arborescence(graph, attr="weight")
    return math.fsum(d["weight"] for _, _, d in tree.edges(data=True))


def check_tree(label: str, codes: list[str], dai: np.ndarray, q: int,
               orientation: str, root: str, edges: list[dict]) -> list[str]:
    """A written tree must be spanning, use the oracle's flows, and be maximal."""
    index = {c: k for k, c in enumerate(codes)}
    n = len(codes)
    problems = []
    if len(edges) != n - 1:
        return [f"{label}: {len(edges)} edges for {n} sectors"]
    parent = {}
    for e in edges:
        i, j, w = index.get(e["source"]), index.get(e["target"]), e["weight_bits"]
        if i is None or j is None:
            return [f"{label}: unknown sector in edge {e}"]
        if not (0.0 < w <= math.log2(q) + TOL and abs(w - dai[i, j]) <= TOL):
            problems.append(f"{label}: edge {e['source']}->{e['target']} weight {w!r}"
                            f" but oracle net flow {dai[i, j]!r}")
        child, par = (j, i) if orientation == "outgoing" else (i, j)
        if child in parent:
            problems.append(f"{label}: sector {codes[child]} has two tree predecessors")
        parent[child] = par
    top = index.get(root)
    for start in range(n):
        node, steps = start, 0
        while node != top and node in parent and steps <= n:
            node, steps = parent[node], steps + 1
        if node != top:
            problems.append(f"{label}: sector {codes[start]} does not reach root {root}")
            break
    total = math.fsum(e["weight_bits"] for e in edges)
    best = _nx_total(dai, orientation)
    if abs(total - best) > TOL:
        problems.append(f"{label}: tree weight {total!r}, networkx maximum {best!r}")
    return problems


def window_flows(returns: np.ndarray, q: int, label: str) -> tuple[np.ndarray, list[str]]:
    """Oracle net flows of one window, plus any bound violation of its TE."""
    te = te_oracle(symbols(returns, q), q)
    problems = []
    if not np.all(np.isfinite(te)) or te.min() < -TOL or te.max() > math.log2(q) + TOL:
        problems.append(f"{label}: oracle TE outside [0, log2 q]")
    dai = te - te.T
    if not np.array_equal(dai, -dai.T):
        problems.append(f"{label}: net flow not antisymmetric")
    return dai, problems


def _dot_edges(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    if not text.startswith("digraph "):
        return -1
    return sum(1 for line in text.splitlines() if " -> " in line)


def expected_files(mode: str, years: list[int]) -> set[str]:
    if mode == "whole":
        return {"msa_whole.csv"} | {f"msa_whole_{o}.{ext}"
                                    for o in ORIENTATIONS for ext in ("json", "dot")}
    names = {"root_occurrences.csv", "yearly_reports.json"}
    for o in ORIENTATIONS:
        names |= {f"yearly_{o}.csv", f"degree_heatmap_{o}.csv"}
        names |= {f"msa_{y}_{o}.dot" for y in years}
    return names


def yearly_windows(dates: list[date], min_days: int) -> dict[int, np.ndarray]:
    """Return-row indices of each calendar year long enough to be studied."""
    years = np.array([d.year for d in dates[1:]])
    spans = {int(y): np.nonzero(years == y)[0] for y in np.unique(years)}
    return {y: rows for y, rows in spans.items() if len(rows) >= min_days}


def check_study(out_dir: Path, mode: str, codes: list[str], dates: list[date],
                closes: np.ndarray, q: int, min_days: int) -> list[str]:
    """Every problem found in one study's output directory; empty when correct."""
    returns = np.diff(np.log(closes), axis=0)
    n = len(codes)
    windows = {"whole": np.arange(len(returns))} if mode == "whole" else \
        yearly_windows(dates, min_days)
    present = {p.name for p in out_dir.iterdir()}
    expected = expected_files(mode, list(windows))
    if present != expected:
        return [f"files missing {sorted(expected - present)}, "
                f"unexpected {sorted(present - expected)}"]

    problems = []
    for name in sorted(expected):
        if name.endswith(".dot") and _dot_edges(out_dir / name) != n - 1:
            problems.append(f"{name}: not a DOT tree over {n} sectors")
    if mode == "whole":
        trees = {"whole": {}}
        for o in ORIENTATIONS:
            doc = json.loads((out_dir / f"msa_whole_{o}.json").read_text(encoding="utf-8"))
            trees["whole"][o] = doc
            total = math.fsum(e["weight_bits"] for e in doc["edges"])
            if abs(total - doc["total_weight_bits"]) > TOL:
                problems.append(f"msa_whole_{o}.json: total weight disagrees with edges")
    else:
        doc = json.loads((out_dir / "yearly_reports.json").read_text(encoding="utf-8"))
        trees = {y: {} for y in windows}
        for o in ORIENTATIONS:
            if [r["year"] for r in doc[o]] != list(windows):
                return [f"yearly_reports.json: {o} years differ from the input's years"]
            for r in doc[o]:
                trees[r["year"]][o] = r
            lines = (out_dir / f"yearly_{o}.csv").read_text(encoding="utf-8").splitlines()
            if len(lines) != len(windows) + 1:
                problems.append(f"yearly_{o}.csv: {len(lines) - 1} rows for {len(windows)} years")

    for key, rows in windows.items():
        dai, bad = window_flows(returns[rows], q, str(key))
        problems += bad
        for o in ORIENTATIONS:
            tree = trees[key][o]
            problems += check_tree(f"{key} {o}", codes, dai, q, o, tree["root"], tree["edges"])
    return problems


def digest_dir(out_dir: Path) -> str:
    """sha256 over the sorted (file name, file sha256) list of a directory."""
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(f"{p.name}\0{hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()
