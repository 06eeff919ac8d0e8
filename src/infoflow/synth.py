"""Synthetic processes with known information flow, for validation and demos.

All generation is driven by numpy's PCG64 bit generator seeded explicitly;
the generator identity is part of the reproducibility contract, so a given
(spec, seed) pair always yields the same dataset bytes.

The coupled binary process is the calibration workhorse: the source is an
iid uniform binary stream and the target copies the source's previous
symbol with probability ``coupling`` (otherwise it redraws uniformly).
Its transfer entropy has the closed form 1 - H2((1 + coupling) / 2), which
pins down estimator convergence without any reference data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .symbolize import Partition, SymbolPanel
from .timeseries import PriceSeries, SectorMeta


@dataclass(frozen=True)
class CoupledBinaryProcess:
    """Lag-1 copy process: target repeats source's last symbol w.p. ``coupling``."""

    coupling: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if self.length < 2:
            raise ValueError("length must be at least 2")


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
    returns of magnitude ``base_move`` plus a small uniform jitter (keeps
    every value distinct), and prices are the cumulative exponential.
    """

    n_sectors: int
    segments: tuple[Segment, ...]
    seed: int
    start: date = date(2000, 1, 3)
    base_move: float = 0.01
    jitter: float = 0.001
    initial_price: float = 100.0
    sectors: tuple[SectorMeta, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not 2 <= self.n_sectors <= 99:
            raise ValueError("n_sectors must lie in [2, 99]")
        if not self.segments:
            raise ValueError("need at least one segment")
        if self.sectors is not None and len(self.sectors) != self.n_sectors:
            raise ValueError("sectors metadata does not match n_sectors")
        for seg in self.segments:
            for c in seg.couplings:
                if not (0 <= c.source < self.n_sectors and 0 <= c.target < self.n_sectors):
                    raise ValueError("coupling endpoint out of range")

    @property
    def length(self) -> int:
        return sum(seg.length for seg in self.segments)


def generate_coupled_binary(coupling: float, length: int, seed: int) -> SymbolPanel:
    """Sample the coupled binary process as a 2-row panel: source, then target.

    Its transfer entropy estimate is ``te_matrix(pair).te[0, 1]``.
    """
    proc = CoupledBinaryProcess(coupling, length, seed)
    rng = np.random.default_rng(proc.seed)
    u_source = rng.random(length)
    u_copy = rng.random(length)
    u_target = rng.random(length)

    y = 1 + (u_source > 0.5).astype(np.int64)
    x = 1 + (u_target > 0.5).astype(np.int64)
    copy_mask = u_copy < proc.coupling
    copy_mask[0] = False  # no predecessor at the first step
    x[1:] = np.where(copy_mask[1:], y[:-1], x[1:])

    sectors = (SectorMeta("900001", "coupled source"), SectorMeta("900002", "coupled target"))
    return SymbolPanel(sectors, Partition(q=2, x_min=-1.0, x_max=1.0), np.stack([y, x]))


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
    incoming = {c.target: c for c in couplings}
    children: dict[int, list[int]] = {}
    for c in couplings:
        children.setdefault(c.source, []).append(c.target)
    indeg = {v: (1 if v in incoming else 0) for v in range(n)}
    order = [v for v in range(n) if indeg[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for child in children.get(v, ()):
            indeg[child] -= 1
            if indeg[child] == 0:
                order.append(child)
    if len(order) != n:
        raise ValueError("couplings must form an acyclic graph within a segment")
    return order


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
        for v in _topological_order(n, seg.couplings):
            c = coupled.get(v)
            if c is None:
                states[t0:t1, v] = iid_states[t0:t1, v]
                continue
            lo = t0
            if t0 == 0:
                states[0, v] = iid_states[0, v]
                lo = 1
            ts = np.arange(lo, t1)
            copy_mask = u_copy[ts, v] < c.strength
            states[ts, v] = np.where(copy_mask, states[ts - 1, c.source], iid_states[ts, v])
        t0 = t1

    direction = 2 * states - 3  # {1, 2} -> {-1, +1}
    returns = spec.base_move * direction + spec.jitter * (2 * u_jitter - 1)

    log_prices = np.concatenate(
        [np.zeros((1, n)), np.cumsum(returns, axis=0)], axis=0
    )
    closes = spec.initial_price * np.exp(log_prices)
    dates = tuple(spec.start + timedelta(days=t) for t in range(total + 1))
    sectors = spec.sectors or tuple(
        SectorMeta(code=f"910{(i + 1) * 10:03d}", name=f"synthetic sector {i + 1:02d}")
        for i in range(n)
    )
    return [PriceSeries(sectors[i], dates, closes[:, i]) for i in range(n)]


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
    if not series:
        raise ValueError("empty dataset")
    dates = series[0].dates
    for s in series[1:]:
        if s.dates != dates:
            raise ValueError("series are not date-aligned")
    header = "date," + ",".join(s.sector.code for s in series)
    lines = [header]
    for t, day in enumerate(dates):
        row = ",".join(repr(float(s.closes[t])) for s in series)
        lines.append(f"{day.isoformat()},{row}")
    return "\n".join(lines) + "\n"
