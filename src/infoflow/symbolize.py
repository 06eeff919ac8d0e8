"""Equal-width amplitude discretization of return series and panels.

Returns are mapped onto symbols 1..q by splitting the observed range into
q equal-width bins.  Bin k covers [x_min + (k-1)*width, x_min + k*width)
for k < q; the top bin is closed on the right so the maximum observation
receives symbol q instead of falling off the partition.

``make_partition`` and ``encode`` take one ``ReturnSeries`` or a whole
``Panel``.  On a panel every row gets its own range, held as n x 1 columns
in one ``Partition``, and all rows are encoded in one vectorized step into
a ``SymbolPanel``; each row equals what the single-series call gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .timeseries import Panel, ReturnSeries, SectorMeta, _freeze


@dataclass(frozen=True)
class Partition:
    """Equal-width bin layout over the closed range [x_min, x_max].

    For a panel, ``x_min`` and ``x_max`` are n x 1 columns: one range per row.
    """

    q: int
    x_min: float | np.ndarray
    x_max: float | np.ndarray

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if not np.all(self.x_max > self.x_min):
            raise ValueError("degenerate partition: x_max must exceed x_min")
        if not np.all(self.width > 0):  # a subnormal range over q underflows
            raise ValueError("degenerate partition: range too narrow for q bins")

    @property
    def width(self) -> float | np.ndarray:
        return (self.x_max - self.x_min) / self.q


def _check_symbols(symbols: np.ndarray, q: int) -> None:
    if symbols.size and (symbols.min() < 1 or symbols.max() > q):
        raise ValueError("symbol outside [1, q]")


@dataclass(frozen=True)
class SymbolSeries:
    """Discretized return series: integer symbols in [1, q] on the source dates."""

    sector: SectorMeta
    partition: Partition
    dates: tuple[date, ...]
    symbols: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "symbols", _freeze(self.symbols, np.int64))
        if len(self.dates) != len(self.symbols):
            raise ValueError("dates and symbols differ in length")
        _check_symbols(self.symbols, self.partition.q)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class SymbolPanel:
    """Symbols in [1, q] of n aligned sectors, one row per sector.

    As a sequence it is its rows: ``len`` is n and ``panel[i]`` is the
    symbol row of ``sectors[i]``.
    """

    sectors: tuple[SectorMeta, ...]
    partition: Partition
    symbols: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "symbols", _freeze(self.symbols, np.int64))
        if self.symbols.ndim != 2 or len(self.symbols) != len(self.sectors):
            raise ValueError("symbols are not one row per sector")
        _check_symbols(self.symbols, self.partition.q)

    def __len__(self) -> int:
        return len(self.sectors)

    def __getitem__(self, row: int) -> np.ndarray:
        return self.symbols[row]


def make_partition(r: ReturnSeries | Panel, q: int) -> Partition:
    """Partition spanning the observed min/max of ``r`` with q bins.

    A panel gets one range per row.  Constant series have zero range and
    cannot be partitioned.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    v = r.values
    lo = v.min(axis=-1, keepdims=v.ndim > 1)
    hi = v.max(axis=-1, keepdims=v.ndim > 1)
    if np.any(hi == lo):
        raise ValueError("degenerate series: constant values")
    return Partition(q=q, x_min=lo, x_max=hi)


def encode(r: ReturnSeries | Panel, p: Partition) -> SymbolSeries | SymbolPanel:
    """Map each return to its bin index, 1-based.

    symbol = 1 + floor((x - x_min) / width), clamped so x == x_max lands in
    the top bin.  Values outside [x_min, x_max] are an error: the partition
    must have been built from this series or a superset of its range.
    """
    v = r.values
    if np.any(v < p.x_min) or np.any(v > p.x_max):
        raise ValueError("value outside partition range")
    raw = np.floor((v - p.x_min) / p.width).astype(np.int64) + 1
    symbols = np.minimum(raw, p.q)
    if isinstance(r, Panel):
        return SymbolPanel(r.sectors, p, symbols)
    return SymbolSeries(r.sector, p, r.dates, symbols)
