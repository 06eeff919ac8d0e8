"""Synthetic processes with known information flow, for validation and demos.

All generation is driven by numpy's PCG64 bit generator seeded explicitly;
the generator identity is part of the reproducibility contract, so a given
(spec, seed) pair always yields the same dataset bytes.

The coupled binary process is the calibration workhorse: the source is an
iid uniform binary stream and the target copies the source's previous
symbol with probability ``coupling`` (otherwise it redraws uniformly).
Its transfer entropy has the closed form 1 - H2((1 + coupling) / 2), which
pins down estimator convergence without any reference data.

Price panels come from a ``SyntheticDataset`` spec: a sector count, a seed,
a start date and segments of planted lag-1 couplings.  Step sizes and the
starting price are the module constants ``BASE_MOVE``, ``JITTER`` and
``INITIAL_PRICE``, and sector codes are numbered ``910010``, ``910020``, ...
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .timeseries import PriceSeries, SectorMeta, aligned_dates


# A synthetic return is +-BASE_MOVE plus uniform noise in [-JITTER, JITTER],
# which keeps every value distinct.
BASE_MOVE = 0.01
JITTER = 0.001
INITIAL_PRICE = 100.0


@dataclass(frozen=True)
class Coupling:
    """Directed lag-1 coupling: ``target`` copies ``source`` w.p. ``strength``."""

    source: int
    target: int
    strength: float

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("coupling source and target must differ")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("coupling strength must lie in [0, 1]")


@dataclass(frozen=True)
class Segment:
    """A stretch of ``length`` return observations with fixed couplings."""

    length: int
    couplings: tuple[Coupling, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if self.length < 1:
            raise ValueError("segment length must be positive")
        targets = [c.target for c in self.couplings]
        if len(targets) != len(set(targets)):
            raise ValueError("at most one coupling per target per segment")


@dataclass(frozen=True)
class SyntheticDataset:
    """Generation spec for an N-sector price panel with planted couplings.

    Each sector follows a latent binary state stream; couplings make a
    target's state copy its source's previous state.  States map to
    returns of magnitude ``BASE_MOVE`` plus a small uniform jitter, and
    prices are the cumulative exponential.
    """

    n_sectors: int
    segments: tuple[Segment, ...]
    seed: int
    start: date = date(2000, 1, 3)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not 2 <= self.n_sectors <= 99:
            raise ValueError("n_sectors must lie in [2, 99]")
        if not self.segments:
            raise ValueError("need at least one segment")
        for seg in self.segments:
            for c in seg.couplings:
                if not (0 <= c.source < self.n_sectors and 0 <= c.target < self.n_sectors):
                    raise ValueError("coupling endpoint out of range")

    @property
    def length(self) -> int:
        return sum(seg.length for seg in self.segments)


def generate_coupled_binary(coupling: float, length: int, seed: int) -> np.ndarray:
    """Sample the coupled binary process as a 2 x L symbol matrix: source, then target.

    Symbols are 1 and 2; the transfer entropy estimate is ``te_matrix(pair)[0, 1]``.
    """
    if not 0.0 <= coupling <= 1.0:
        raise ValueError("coupling must lie in [0, 1]")
    if length < 2:
        raise ValueError("length must be at least 2")
    rng = np.random.default_rng(seed)
    u_source = rng.random(length)
    u_copy = rng.random(length)
    u_target = rng.random(length)

    y = 1 + (u_source > 0.5).astype(np.int64)
    x = 1 + (u_target > 0.5).astype(np.int64)
    copy_mask = u_copy < coupling
    copy_mask[0] = False  # no predecessor at the first step
    x[1:] = np.where(copy_mask[1:], y[:-1], x[1:])
    return np.stack([y, x])


def analytic_te_coupled_binary(coupling: float) -> float:
    """Exact transfer entropy of the coupled binary process, in bits."""
    if not 0.0 <= coupling <= 1.0:
        raise ValueError("coupling must lie in [0, 1]")
    p = (1.0 + coupling) / 2.0
    return 1.0 - _binary_entropy(p)


def _binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _topological_order(n: int, couplings: tuple[Coupling, ...]) -> list[int]:
    sources = {v: () for v in range(n)} | {c.target: (c.source,) for c in couplings}
    try:
        return list(graphlib.TopologicalSorter(sources).static_order())
    except graphlib.CycleError as exc:
        raise ValueError("couplings must form an acyclic graph within a segment") from exc


def generate_dataset(spec: SyntheticDataset) -> list[PriceSeries]:
    """Deterministic N-sector price panel with the spec's planted couplings."""
    n = spec.n_sectors
    total = spec.length
    rng = np.random.default_rng(spec.seed)
    # Fixed draw layout: one uniform per (step, sector) for the state, the
    # coupling decision, and the jitter, regardless of the coupling graph.
    u_state = rng.random((total, n))
    u_copy = rng.random((total, n))
    u_jitter = rng.random((total, n))

    iid_states = 1 + (u_state > 0.5).astype(np.int64)
    states = np.empty((total, n), dtype=np.int64)
    t0 = 0
    for seg in spec.segments:
        t1 = t0 + seg.length
        coupled = {c.target: c for c in seg.couplings}
        states[t0:t1] = iid_states[t0:t1]
        for v in _topological_order(n, seg.couplings):
            c = coupled.get(v)
            if c is None:
                continue
            ts = np.arange(max(t0, 1), t1)  # the first state has no previous one to copy
            copy_mask = u_copy[ts, v] < c.strength
            states[ts, v] = np.where(copy_mask, states[ts - 1, c.source], iid_states[ts, v])
        t0 = t1

    direction = 2 * states - 3  # {1, 2} -> {-1, +1}
    returns = BASE_MOVE * direction + JITTER * (2 * u_jitter - 1)

    log_prices = np.concatenate(
        [np.zeros((1, n)), np.cumsum(returns, axis=0)], axis=0
    )
    closes = INITIAL_PRICE * np.exp(log_prices)
    dates = np.datetime64(spec.start, "D") + np.arange(total + 1)
    return [
        PriceSeries(SectorMeta(f"910{(i + 1) * 10:03d}", f"synthetic sector {i + 1:02d}"),
                    dates, closes[:, i])
        for i in range(n)
    ]


def demo_dataset(seed: int = 7) -> list[PriceSeries]:
    """Bundled 28-sector panel spanning 2001-2003 with a planted hub and chains.

    Sector 1 drives eight direct targets, with two weaker relay chains
    further down; everything else is idle noise.  Used by the demos and by
    the end-to-end determinism checks.
    """
    couplings = [Coupling(source=0, target=t, strength=0.75) for t in range(1, 9)]
    couplings += [
        Coupling(source=9, target=10, strength=0.6),
        Coupling(source=10, target=11, strength=0.6),
        Coupling(source=1, target=12, strength=0.5),
        Coupling(source=1, target=13, strength=0.5),
    ]
    spec = SyntheticDataset(
        n_sectors=28,
        segments=(Segment(length=1095, couplings=tuple(couplings)),),
        seed=seed,
        start=date(2000, 12, 31),
    )
    return generate_dataset(spec)


def dataset_to_csv(series: list[PriceSeries]) -> str:
    """Wide-format CSV (``date,<code1>,...``) consumable by the loader."""
    dates = aligned_dates(series)
    rows = np.column_stack([s.closes for s in series]).tolist()
    lines = ["date," + ",".join(s.sector.code for s in series)]
    lines += [f"{day.isoformat()},{','.join(map(repr, row))}"
              for day, row in zip(dates.tolist(), rows)]
    return "\n".join(lines) + "\n"
