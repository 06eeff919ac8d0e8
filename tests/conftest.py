"""Shared test fixtures and builders."""

from datetime import date, timedelta

import numpy as np
import pytest

from infoflow.entropy import te_matrix
from infoflow.network import InfoFlowNetwork
from infoflow.timeseries import Panel, PriceSeries, SectorMeta


def pair_te(source, target):
    """TE from symbol row ``source`` to ``target``: te[0, 1] of their 2-row matrix."""
    return te_matrix(np.stack([source, target]))[0, 1]


def make_returns(values, code="900001", start=date(2000, 1, 3)):
    """1-row return Panel on a consecutive date axis."""
    dates = tuple(start + timedelta(days=t) for t in range(len(values)))
    return Panel((SectorMeta(code),), dates, np.asarray(values, dtype=float)[None, :])


def make_prices(closes, code="900001", start=date(2000, 1, 3)):
    dates = tuple(start + timedelta(days=t) for t in range(len(closes)))
    return PriceSeries(SectorMeta(code), dates, np.asarray(closes, dtype=float))


def random_complete_network(n, rng, code_base=900000, weights=None):
    """Complete orientation with random weights and random directions.

    Weights are distinct draws from U(0.01, 1), or draws from the finite
    ``weights`` set when one is given, which plants exact ties.
    """
    sectors = tuple(SectorMeta(str(code_base + k + 1)) for k in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if weights is None:
                w = float(rng.uniform(0.01, 1.0))
            else:
                w = float(rng.choice(weights))
            if rng.random() < 0.5:
                edges.append((i, j, w))
            else:
                edges.append((j, i, w))
    return InfoFlowNetwork(sectors=sectors, edges=tuple(edges))


def turmoil_dataset(seed, t_len=250, n=8, coupling=0.9):
    """Three equal windows of 2*t_len returns; only the middle is coupled.

    Returns (price series, crash_start, crash_end) where the crash interval
    spans exactly t_len trading days and the derived during-window lines up
    with the coupled middle segment.
    """
    from infoflow.synth import Coupling, Segment, SyntheticDataset, generate_dataset

    star = tuple(Coupling(0, t, coupling) for t in range(1, n))
    spec = SyntheticDataset(
        n_sectors=n,
        segments=(
            Segment(2 * t_len, ()),
            Segment(2 * t_len, star),
            Segment(2 * t_len, ()),
        ),
        seed=seed,
    )
    series = generate_dataset(spec)
    crash_start = spec.start + timedelta(days=3 * t_len + 1)
    crash_end = crash_start + timedelta(days=t_len - 1)
    return series, crash_start, crash_end


@pytest.fixture
def rng():
    return np.random.default_rng(20180104)
