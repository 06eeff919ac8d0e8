"""Symbolic transfer entropy and net information flow between symbol series.

The estimator is the plug-in evaluation, in bits, of

    TE(src -> tgt) = sum p(t1, t0, s0) * log2[ p(t1, t0, s0) p(t0)
                                               / (p(t1, t0) p(t0, s0)) ]

over target-next / target-now / source-now symbol triplets with a single
lag on each side.  Every probability is a marginal of the one empirical
triplet distribution, which makes the estimate an empirical conditional
mutual information: nonnegative, and zero for a series against itself.

With a = target next, b = target now, c = source now, N = L - 1 triplets
and n_* their counts, the sample sizes cancel and

    N * TE = S(n_abc) - S(n_ab) - S(n_bc) + S(n_b),   S(n) = sum n log2 n.

One kernel evaluates this for a whole window, one target at a time
against every source: ``te_matrix`` runs it on a ``SymbolPanel`` and
``transfer_entropy`` on one pair of ``SymbolSeries``.  The target's own counts n_ab and n_b come from one
bincount over all series; n_abc for every source comes from one bincount
per target, keyed by (source, source symbol, target state), and n_bc sums
n_abc over the target's next symbol.  All counts are exact integers.

The n log2 n sums are not added up in floating point.  Each count k is
factored into primes, k log2 k = sum_p k e_p(k) log2 p, so N * TE is an
exact integer combination sum_p d_p log2 p; d is accumulated exactly, as
integer-valued float64 sums far below 2**53.  Logs of distinct primes are
linearly independent over the rationals, so d is zero exactly when the
estimate is zero and equal for two estimates exactly when they are equal.
Only the last step, sum_p d_p log2 p, rounds, and it depends on d alone.
Hence an estimate is exactly 0.0 when the counts factor exactly; two equal
estimates (such as the two directions of an exactly tied pair) give the
same float, so their net flow is exactly 0.0 and the network records a
tie; and te[i, j] does not depend on which other series share the call, so
a single pair equals its entry in a full matrix bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symbolize import SymbolPanel, SymbolSeries
from .timeseries import SectorMeta, _freeze


def _check_square(m, name: str) -> None:
    """Freeze matrix field ``name`` of ``m``; it must be n x n for n sectors."""
    object.__setattr__(m, "sectors", tuple(m.sectors))
    object.__setattr__(m, name, _freeze(getattr(m, name), np.float64))
    n = len(m.sectors)
    if getattr(m, name).shape != (n, n):
        raise ValueError(f"{name} matrix shape does not match sector count")


@dataclass(frozen=True)
class TeMatrix:
    """Pairwise transfer entropies in bits; te[i, j] is flow from i to j."""

    sectors: tuple[SectorMeta, ...]
    te: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_square(self, "te")


@dataclass(frozen=True)
class DaiMatrix:
    """Antisymmetric net information flow: dai[i, j] = te[i, j] - te[j, i]."""

    sectors: tuple[SectorMeta, ...]
    dai: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_square(self, "dai")


def _prime_factors(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primes up to ``n_max`` and the factorization of every count 0..n_max.

    Returns (primes, index, weight): row k lists in ``index`` the positions
    in ``primes`` of k's distinct prime factors and in ``weight`` the
    matching k * exponent, zero in unused slots, so that
    k log2 k = sum(weight[k] * log2(primes[index[k]])).
    """
    spf = np.arange(n_max + 1)  # smallest prime factor of each k >= 2
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            spf[p * p :: p] = np.minimum(spf[p * p :: p], p)
    primes = np.flatnonzero(spf[2:] == np.arange(2, n_max + 1)) + 2
    position = np.zeros(n_max + 1, dtype=np.intp)
    position[primes] = np.arange(len(primes))
    k = np.arange(n_max + 1)
    rest = k.copy()
    index, weight = [], []
    while not index or np.any(rest > 1):
        factor = np.where(rest > 1, spf[rest], 1)
        exponent = np.zeros_like(k)
        while np.any(divides := (factor > 1) & (rest % factor == 0)):
            exponent += divides
            rest = np.where(divides, rest // factor, rest)
        index.append(position[factor])
        weight.append(k * exponent)
    return primes, np.stack(index, axis=1), np.stack(weight, axis=1).astype(np.float64)


def _te_columns(symbols: np.ndarray, q: int, targets) -> np.ndarray:
    """te[i, j] in bits for every row i of ``symbols`` and each j in ``targets``.

    ``symbols`` is an n x L matrix of aligned symbols in [1, q].  Columns
    not in ``targets`` stay 0.
    """
    n, length = symbols.shape
    n_tri = length - 1
    now = symbols[:, :-1] - 1
    nxt = symbols[:, 1:] - 1
    primes, factor_index, factor_weight = _prime_factors(n_tri)
    n_primes = len(primes)
    log_primes = np.log2(primes)

    def log_terms(counts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Coefficient of each log2(prime) in sum n log2 n over the count
        rows of each series; ``owner`` maps count rows to series."""
        used = counts > 1  # 0 log 0 = 1 log 1 = 0
        k = counts[used]
        bins = (owner[np.nonzero(used)[0]] * n_primes)[:, None]
        bins = bins + np.take(factor_index, k, axis=0)
        return np.bincount(bins.ravel(), np.take(factor_weight, k, axis=0).ravel(),
                           minlength=n * n_primes).reshape(n, n_primes)

    series = np.arange(n)
    rows = series[:, None]
    # Count rows: one per (series, symbol) seen at "now" in this window.
    # source[r] is the series of row r; source_row[i, t] is the row of
    # series i's sample t.
    seen = np.zeros((n, q), dtype=bool)
    seen[rows, now] = True
    source = np.repeat(series, seen.sum(axis=1))
    source_row = (np.cumsum(seen.ravel()).reshape(n, q) - 1)[rows, now]
    # Target states (now, next) are numbered now-major, so the states that
    # share a "now" symbol are adjacent.
    state = now * q + nxt
    n_ab = np.bincount((rows * q * q + state).ravel(), minlength=n * q * q).reshape(n, -1)
    n_b = np.bincount((rows * q + now).ravel(), minlength=n * q).reshape(n, q)
    own = log_terms(n_b, series) - log_terms(n_ab, series)

    te = np.zeros((n, n))
    for j in targets:
        # n_abc[row, s]: samples with that source symbol and target j's
        # s-th observed state; n_bc sums the states of each "now" symbol.
        observed = np.flatnonzero(n_ab[j])
        code = np.zeros(q * q, dtype=np.intp)
        code[observed] = np.arange(len(observed))
        n_abc = np.bincount((source_row * len(observed) + code[state[j]]).ravel(),
                            minlength=len(source) * len(observed)).reshape(len(source), -1)
        now_starts = np.unique(observed // q, return_index=True)[1]
        n_bc = np.add.reduceat(n_abc, now_starts, axis=1)
        exponents = log_terms(n_abc, source) - log_terms(n_bc, source) + own[j]
        te[:, j] = (exponents * log_primes).sum(axis=1) / n_tri
    return te


def transfer_entropy(source: SymbolSeries, target: SymbolSeries) -> float:
    """Symbolic transfer entropy from ``source`` to ``target``, in bits."""
    if len(source) != len(target):
        raise ValueError("symbol series differ in length")
    if len(target) < 2:
        raise ValueError("need at least 2 aligned samples")
    if source.dates != target.dates:
        raise ValueError("symbol series are not date-aligned")
    if source.partition.q != target.partition.q:
        raise ValueError("symbol series use different bin counts")
    symbols = np.stack([source.symbols, target.symbols])
    return float(_te_columns(symbols, target.partition.q, (1,))[0, 1])


def te_matrix(all_series: SymbolPanel) -> TeMatrix:
    """Transfer entropy for every ordered sector pair; te[i, j] is i -> j.

    The panel's rows share one date axis by construction, so no per-pair
    alignment check is needed.
    """
    if len(all_series) < 2:
        raise ValueError("need at least 2 series")
    if all_series.symbols.shape[1] < 2:
        raise ValueError("need at least 2 aligned samples")
    te = _te_columns(all_series.symbols, all_series.partition.q, range(len(all_series)))
    return TeMatrix(sectors=all_series.sectors, te=te)


def dai_matrix(te: TeMatrix) -> DaiMatrix:
    """Net information flow for every pair: dai = te - te^T (exact)."""
    return DaiMatrix(sectors=te.sectors, dai=te.te - te.te.T)
