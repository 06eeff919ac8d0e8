"""Seeded synthetic sector panels written as the wide CSV the CLI reads.

The panel comes from ``infoflow.synth.generate_dataset`` with planted lag-1
couplings drawn from the seed.  Prices are re-dated onto a Monday-Friday
calendar starting 2000-01-03, so ``msa --mode yearly`` sees calendar years of
about 260 trading days, as in the paper's 2000-2017 sample.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from infoflow.synth import Coupling, Segment, SyntheticDataset, generate_dataset

START = date(2000, 1, 3)  # a Monday


def weekdays(start: date, count: int) -> list[date]:
    """The first ``count`` Monday-Friday dates from ``start`` on."""
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def planted_couplings(n: int, rng: np.random.Generator) -> tuple[Coupling, ...]:
    """About half the sectors copy an earlier sector in a random causal order."""
    order = rng.permutation(n)
    couplings = []
    for rank in range(1, n):
        if rng.random() < 0.5:
            source = int(order[rng.integers(rank)])
            strength = float(rng.uniform(0.3, 0.8))
            couplings.append(Coupling(source, int(order[rank]), strength))
    return tuple(couplings)


def make_panel(n: int, days: int, seed: int) -> tuple[list[str], list[date], np.ndarray]:
    """Sector codes, ``days + 1`` price dates and the (days + 1) x n close matrix."""
    couplings = planted_couplings(n, np.random.default_rng(seed))
    spec = SyntheticDataset(n_sectors=n, segments=(Segment(days, couplings),), seed=seed)
    series = generate_dataset(spec)
    closes = np.column_stack([s.closes for s in series])
    return [s.sector.code for s in series], weekdays(START, days + 1), closes


def panel_csv(codes: list[str], dates: list[date], closes: np.ndarray) -> str:
    """Wide CSV with shortest round-trip float text, so parsing is exact."""
    lines = ["date," + ",".join(codes)]
    for day, row in zip(dates, closes.tolist()):
        lines.append(day.isoformat() + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"
