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

One kernel, behind ``te_matrix``, evaluates this for a whole window's
n x L symbol matrix, every target against every source; the estimate for
one pair is ``te_matrix(pair)[0, 1]`` of its 2-row matrix.  The alphabet
is 1..max(symbols): symbols that never occur add no counts, so the
estimate does not depend on them.  The targets' own counts n_ab and n_b
come from one bincount over all series.  Each observed (target, now,
next) state gets one global column, and n_abc comes from one bincount per
block of targets, keyed by (source, source symbol) and column; one
reduceat over the columns that share (target, now) gives n_bc.  Blocks
are sized from the window's shape, so short windows take many targets per
call and long ones keep their arrays bounded.  All counts are exact
integers.

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
the 2-row matrix of a pair gives its entry in a full matrix bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=32)
def _prime_factors(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log2 of the primes up to ``n_max``, and the factorization of each count 0..n_max.

    Returns (log_primes, index, weight): row k lists in ``index`` the
    positions in ``log_primes`` of k's distinct prime factors and in
    ``weight`` the matching k * exponent, zero in unused slots, so that
    k log2 k = sum(weight[k] * log_primes[index[k]]).  Cached per ``n_max``
    (one table per window length), so the arrays are read-only.
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
    tables = (np.log2(primes), np.stack(index, axis=1),
              np.stack(weight, axis=1).astype(np.float64))
    for table in tables:
        table.flags.writeable = False
    return tables


# Most count cells, n * q**2 for n series over an alphabet of q symbols,
# that one TE matrix may take: the kernel's dense state tables have this
# many entries, so a larger alphabet is refused before anything is allocated.
_MAX_COUNT_CELLS = 1 << 24

# Entries per block of targets: a block's sample keys and its count matrix
# stay below this many (one target per block when one alone is larger), so
# a short window takes several targets per call and a long one keeps its
# arrays bounded.
_BLOCK_CELLS = 1 << 16


def _te_columns(symbols: np.ndarray, q: int) -> np.ndarray:
    """te[i, j] in bits for every ordered pair of rows of ``symbols``.

    ``symbols`` is an n x L int64 matrix of aligned symbols in [1, q].
    """
    n, length = symbols.shape
    n_tri = length - 1
    log_primes, factor_index, factor_weight = _prime_factors(n_tri)
    n_primes = len(log_primes)

    def log_terms(counts: np.ndarray, owner_row, owner_col, n_owners: int) -> np.ndarray:
        """Coefficient of each log2(prime) in sum n log2 n over the count
        cells of each owner; cell (r, c) belongs to owner_row[r] + owner_col[c]."""
        cells = np.flatnonzero(counts > 1)  # 0 log 0 = 1 log 1 = 0
        k = np.take(counts, cells)
        row = cells // counts.shape[1]
        owner = np.take(owner_row, row) + np.take(owner_col, cells - row * counts.shape[1])
        bins = np.take(factor_index, k, axis=0)
        bins += (owner * n_primes)[:, None]
        return np.bincount(bins.ravel(), np.take(factor_weight, k, axis=0).ravel(),
                           minlength=n_owners * n_primes).reshape(n_owners, n_primes)

    series = np.arange(n)
    rows = series[:, None]
    # Count rows: one per (series, symbol) seen at "now" in this window.
    # source[r] is the series of row r; source_row[i, t] is the row of
    # series i's sample t.
    now = symbols[:, :-1] - 1
    seen = np.zeros((n, q), dtype=bool)
    seen[rows, now] = True
    source = np.repeat(series, seen.sum(axis=1))
    source_row = (np.cumsum(seen.ravel()).reshape(n, q) - 1)[rows, now]
    n_rows = len(source)
    # Series i's state (now, next) at t gets the key (i * q + now) * q + next:
    # keys are series-major, then now-major, so the states that share a
    # series and a "now" symbol are adjacent.
    state = now  # updated in place
    state += rows * q
    n_b = np.bincount(state.ravel(), minlength=n * q).reshape(n, q)
    state *= q
    state += symbols[:, 1:]
    state -= 1
    n_ab = np.bincount(state.ravel(), minlength=n * q * q)
    no_col = np.zeros(q * q, dtype=np.intp)
    own = (log_terms(n_b, series, no_col, n)
           - log_terms(n_ab.reshape(n, -1), series, no_col, n))

    # Every observed state of every target is one column of n_abc, in key
    # order; state_col[j, t] is the column of target j's sample t.  A group
    # of columns shares (target, now), and n_bc sums each group.
    observed = np.flatnonzero(n_ab)
    col_target = observed // (q * q)
    col_of = np.zeros(n * q * q, dtype=np.intp)
    col_of[observed] = np.arange(len(observed))
    state_col = np.take(col_of, state)
    group = observed // q
    group_start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    target_start = np.searchsorted(col_target, series)
    target_end = np.r_[target_start[1:], len(observed)]

    # Targets [j0, j1) form one block: one bincount, keyed by source row
    # and column, counts n_abc for all of them.
    per_block = max(1, _BLOCK_CELLS // (n * n_tri))
    te = np.empty((n, n))
    j0 = 0
    while j0 < n:
        j1 = j0 + 1
        while (j1 < n and j1 - j0 < per_block
               and n_rows * (target_end[j1] - target_start[j0]) <= _BLOCK_CELLS):
            j1 += 1
        c0, c1 = target_start[j0], target_end[j1 - 1]
        width = c1 - c0
        keys = np.multiply(source_row, width, out=np.empty((j1 - j0, n, n_tri), np.intp))
        keys += state_col[j0:j1, None, :] - c0
        n_abc = np.bincount(keys.ravel(), minlength=n_rows * width).reshape(n_rows, width)
        del keys
        starts = group_start[(group_start >= c0) & (group_start < c1)]
        n_bc = np.add.reduceat(n_abc, starts - c0, axis=1)
        # Terms are owned by (target - j0) * n + source.
        owners = (j1 - j0) * n
        exponents = (log_terms(n_abc, source, (col_target[c0:c1] - j0) * n, owners)
                     - log_terms(n_bc, source, (col_target[starts] - j0) * n, owners))
        exponents = exponents.reshape(j1 - j0, n, n_primes) + own[j0:j1, None, :]
        te[:, j0:j1] = ((exponents * log_primes).sum(axis=2) / n_tri).T
        j0 = j1
    return te


def te_matrix(symbols: np.ndarray) -> np.ndarray:
    """Transfer entropy for every ordered pair of rows; te[i, j] is i -> j.

    ``symbols`` is an n x L matrix of aligned symbols 1, 2, ..., as
    ``encode`` gives; the alphabet is 1..symbols.max().  A pair's estimate
    is ``te[0, 1]`` of its 2-row matrix.  A symbol below 1 is refused, and
    so is an alphabet of q symbols whose n * q**2 count cells exceed
    ``_MAX_COUNT_CELLS``.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 2:
        raise ValueError("symbols must be an n x L matrix")
    n, length = symbols.shape
    if n < 2:
        raise ValueError("need at least 2 sectors")
    if length < 2:
        raise ValueError("need at least 2 aligned samples")
    if symbols.min() < 1:
        raise ValueError("symbol below 1")
    q = int(symbols.max())
    if n * q * q > _MAX_COUNT_CELLS:
        raise ValueError(f"alphabet of {q} symbols is too large for {n} sectors: "
                         f"{n} x {q}^2 count cells exceed {_MAX_COUNT_CELLS}")
    return _te_columns(symbols, q)


def dai_matrix(te: np.ndarray) -> np.ndarray:
    """Net information flow for every pair: dai = te - te^T (exact)."""
    return te - te.T
