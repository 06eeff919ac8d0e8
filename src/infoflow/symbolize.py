"""Equal-width amplitude discretization of return panels.

Returns are mapped onto symbols 1..q by splitting the observed range into
q equal-width bins.  Bin k covers [x_min + (k-1)*width, x_min + k*width)
for k < q; the top bin is closed on the right so the maximum observation
receives symbol q instead of falling off the partition.

``make_partition`` and ``encode`` take a ``Panel``; one series is a 1-row
panel.  Every row gets its own range, held as n x 1 columns in one
``Partition``, and all rows are encoded in one vectorized step into an
n x L int64 symbol matrix; each row equals the encoding of its own 1-row
panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import Panel


@dataclass(frozen=True)
class Partition:
    """Equal-width bin layout over the closed ranges [x_min, x_max].

    ``x_min`` and ``x_max`` are n x 1 columns, one range per panel row; 2 <= q <= 2**53.
    """

    q: int
    x_min: np.ndarray
    x_max: np.ndarray

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.q > 2**53:  # past 2**53, float64 no longer counts bins exactly
            raise ValueError(f"q must be at most 2**53, not {self.q}")
        if not np.all(self.x_max > self.x_min):
            raise ValueError("degenerate partition: x_max must exceed x_min")
        if not np.all(self.width > 0):  # a subnormal range over q underflows
            raise ValueError("degenerate partition: range too narrow for q bins")

    @property
    def width(self) -> np.ndarray:
        return (self.x_max - self.x_min) / self.q


def make_partition(returns: Panel, q: int) -> Partition:
    """Partition spanning the observed min/max of each row with q bins.

    A constant row has zero range and cannot be partitioned; ``Partition`` checks q.
    """
    lo = returns.values.min(axis=1, keepdims=True)
    hi = returns.values.max(axis=1, keepdims=True)
    if np.any(hi == lo):
        raise ValueError("degenerate series: constant values")
    return Partition(q=q, x_min=lo, x_max=hi)


def encode(returns: Panel, p: Partition) -> np.ndarray:
    """Map each return to its bin index, 1-based: the n x L int64 symbol matrix.

    symbol = 1 + floor((x - x_min) / width), clamped so x == x_max lands in
    the top bin.  Values outside [x_min, x_max] are an error: the partition
    must have been built from this panel or a superset of each row's range.
    Row i holds the symbols of ``returns.sectors[i]``.
    """
    v = returns.values
    if np.any(v < p.x_min) or np.any(v > p.x_max):
        raise ValueError("value outside partition range")
    raw = np.floor((v - p.x_min) / p.width).astype(np.int64) + 1
    return np.minimum(raw, p.q)
