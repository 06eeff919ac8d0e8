import json

import numpy as np
import pytest

from infoflow.entropy import DaiMatrix
from infoflow.network import (
    InfoFlowNetwork,
    build_network,
    network_to_dot,
    network_to_json,
)
from infoflow.timeseries import SectorMeta


def dai_from(matrix, codes):
    sectors = tuple(SectorMeta(c) for c in codes)
    return DaiMatrix(sectors=sectors, dai=np.asarray(matrix, dtype=float))


class TestBuildNetwork:
    def test_sign_rule_single_pair(self):
        d = dai_from([[0.0, 0.2], [-0.2, 0.0]], ["900001", "900002"])
        net = build_network(d)
        assert net.edges == ((0, 1, 0.2),)

    def test_negative_entry_reverses(self):
        d = dai_from([[0.0, -0.4], [0.4, 0.0]], ["900001", "900002"])
        net = build_network(d)
        assert net.edges == ((1, 0, 0.4),)

    def test_complete_orientation_edge_count(self, rng):
        n = 28
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        net = build_network(dai_from(dai, codes))
        assert len(net.edges) == n * (n - 1) // 2 == 378
        assert not net.ties

    def test_tie_drops_edge_with_warning(self):
        d = dai_from(
            [[0.0, 0.0, 0.3], [0.0, 0.0, -0.1], [-0.3, 0.1, 0.0]],
            ["900001", "900002", "900003"],
        )
        with pytest.warns(UserWarning, match="tied pair"):
            net = build_network(d)
        assert len(net.edges) == 2
        assert net.ties == ((0, 1),)

    def test_weights_are_dai_magnitudes(self, rng):
        n = 6
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        net = build_network(dai_from(dai, codes))
        for i, j, w in net.edges:
            assert w == abs(dai[i][j])

    def test_sign_flip_reverses_every_edge(self, rng):
        n = 5
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        fwd = build_network(dai_from(dai, codes))
        rev = build_network(dai_from(-dai, codes))
        assert sorted((j, i, w) for i, j, w in fwd.edges) == sorted(rev.edges)


    @pytest.mark.parametrize("w", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_weight(self, w):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        with pytest.raises(ValueError, match="positive and finite"):
            InfoFlowNetwork(sectors=sectors, edges=((0, 1, w),))


class TestExports:
    def _net(self):
        d = dai_from(
            [[0.0, 0.25, -0.5], [-0.25, 0.0, 0.125], [0.5, -0.125, 0.0]],
            ["900001", "900002", "900003"],
        )
        return build_network(d)

    def test_json_roundtrip(self):
        payload = json.loads(network_to_json(self._net()))
        assert [n["code"] for n in payload["nodes"]] == ["900001", "900002", "900003"]
        assert len(payload["edges"]) == 3
        weights = {(e["source"], e["target"]): e["weight_bits"] for e in payload["edges"]}
        assert weights[("900001", "900002")] == 0.25
        assert weights[("900003", "900001")] == 0.5

    def test_dot_labels_four_decimals(self):
        text = network_to_dot(self._net())
        assert text.startswith("digraph")
        assert '"001" -> "002" [label="0.2500"];' in text
        assert '"003" -> "001" [label="0.5000"];' in text

    def test_deterministic_output(self):
        assert network_to_json(self._net()) == network_to_json(self._net())
        assert network_to_dot(self._net()) == network_to_dot(self._net())
