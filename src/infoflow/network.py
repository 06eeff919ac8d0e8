"""Directed, weighted information-flow network built from net flows.

``InfoFlowNetwork(sectors, dai)`` holds the n x n net-flow matrix and refuses
one of the wrong shape, with a non-finite entry, or not exactly antisymmetric.
A positive net flow is an edge weighted by its magnitude; an exactly zero one
is a tie, left without an edge rather than oriented arbitrarily, so consumers
must accept a non-complete orientation.  Edges and ties come in (source,
target) index order; on a ``Panel``'s sectors that is code order, which the
tie rules rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .timeseries import SectorMeta

# The tie warning names at most this many code pairs; its count is exact.
_LISTED_TIES = 10


@dataclass(frozen=True)
class InfoFlowNetwork:
    """Directed graph over sectors, derived once from its net-flow matrix ``dai``.

    ``dai`` is kept as a read-only float64 copy.  Edges (i, j, dai[i, j] > 0) and
    ties (dai[i, j] == 0, i < j) are row-major; ``==`` and ``hash`` ignore ``dai``.
    """

    sectors: tuple[SectorMeta, ...]
    dai: np.ndarray = field(repr=False, compare=False)
    edges: tuple[tuple[int, int, float], ...] = field(init=False)
    ties: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        sectors = tuple(self.sectors)
        n = len(sectors)
        dai = np.array(self.dai, dtype=np.float64)
        if dai.shape != (n, n):
            raise ValueError("dai matrix shape does not match sector count")
        if not np.isfinite(dai).all():
            raise ValueError("dai matrix has a non-finite entry")
        if not np.array_equal(dai, -dai.T):
            raise ValueError("dai matrix is not exactly antisymmetric")
        dai.flags.writeable = False
        sources, targets = np.nonzero(dai > 0)
        tie_rows, tie_cols = np.nonzero(np.triu(dai == 0, 1))
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "dai", dai)
        object.__setattr__(self, "edges", tuple(zip(
            sources.tolist(), targets.tolist(), dai[sources, targets].tolist())))
        object.__setattr__(self, "ties", tuple(zip(tie_rows.tolist(), tie_cols.tolist())))


def build_network(sectors: tuple[SectorMeta, ...], dai: np.ndarray) -> InfoFlowNetwork:
    """``InfoFlowNetwork(sectors, dai)``, with a warning that lists its ties.

    ``dai`` is the n x n net-flow matrix over the n sectors, in their order;
    one of the wrong shape, with a non-finite entry, or not exactly
    antisymmetric is refused with ``ValueError``.
    """
    net = InfoFlowNetwork(sectors, dai)
    ties = net.ties
    if ties:
        labels = ", ".join(
            f"{sectors[i].code}/{sectors[j].code}" for i, j in ties[:_LISTED_TIES]
        )
        if len(ties) > _LISTED_TIES:
            labels += f", … and {len(ties) - _LISTED_TIES} more"
        warnings.warn(f"dropped {len(ties)} tied pair(s) with zero net flow: {labels}",
                      stacklevel=2)
    return net
