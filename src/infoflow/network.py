"""Directed, weighted information-flow network built from net flows.

Each unordered sector pair contributes at most one edge, oriented along
the positive net flow and weighted by its magnitude.  An exactly zero net
flow would be directionless; the pair is skipped with a warning instead
of picking an arbitrary orientation, so downstream consumers must accept
a non-complete orientation.  Edges and ties come in (source, target) index
order; on a ``Panel``'s sectors that is code order, which the tie rules rank.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .timeseries import SectorMeta

# The tie warning names at most this many code pairs; its count is exact.
_LISTED_TIES = 10


@dataclass(frozen=True)
class InfoFlowNetwork:
    """Directed graph over sectors; edges are (source, target, weight > 0).

    Edges are kept sorted by (source index, target index), whatever order they come in.
    """

    sectors: tuple[SectorMeta, ...]
    edges: tuple[tuple[int, int, float], ...]
    ties: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "ties", tuple(self.ties))
        seen_pairs = set()
        for i, j, w in self.edges:
            if i == j:
                raise ValueError("self-edge")
            if not 0 < w < math.inf:  # the solver scales weights to exact integers
                raise ValueError("edge weight must be positive and finite")
            pair = (i, j) if i < j else (j, i)
            if pair in seen_pairs:
                raise ValueError("duplicate edge for one sector pair")
            seen_pairs.add(pair)


def build_network(sectors: tuple[SectorMeta, ...], dai: np.ndarray) -> InfoFlowNetwork:
    """Orient each pair of ``sectors`` along the sign of its net flow.

    ``dai`` is the antisymmetric n x n net-flow matrix over the n sectors,
    in their order, as ``dai_matrix`` gives it.  dai[i, j] > 0 yields edge
    i -> j with weight dai[i, j]; an exact zero drops the pair and records
    it in ``ties``.  Both come out in row-major (i, j) order.
    """
    n = len(sectors)
    dai = np.asarray(dai, dtype=np.float64)
    if dai.shape != (n, n):
        raise ValueError("dai matrix shape does not match sector count")
    sources, targets = np.nonzero(dai > 0)
    edges = list(zip(sources.tolist(), targets.tolist(), dai[sources, targets].tolist()))
    tie_rows, tie_cols = np.nonzero(np.triu(dai == 0, 1))
    ties = list(zip(tie_rows.tolist(), tie_cols.tolist()))
    if ties:
        labels = ", ".join(
            f"{sectors[i].code}/{sectors[j].code}" for i, j in ties[:_LISTED_TIES]
        )
        if len(ties) > _LISTED_TIES:
            labels += f", … and {len(ties) - _LISTED_TIES} more"
        warnings.warn(f"dropped {len(ties)} tied pair(s) with zero net flow: {labels}",
                      stacklevel=2)
    return InfoFlowNetwork(sectors=sectors, edges=tuple(edges), ties=tuple(ties))
