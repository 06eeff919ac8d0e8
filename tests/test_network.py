import numpy as np
import pytest

from infoflow.network import InfoFlowNetwork, build_network
from infoflow.timeseries import SectorMeta


def dai_from(matrix, codes):
    """``build_network``'s arguments: the sectors of ``codes`` and the net flows."""
    return tuple(SectorMeta(c) for c in codes), np.asarray(matrix, dtype=float)


class TestBuildNetwork:
    def test_sign_rule_single_pair(self):
        d = dai_from([[0.0, 0.2], [-0.2, 0.0]], ["900001", "900002"])
        net = build_network(*d)
        assert net.edges == ((0, 1, 0.2),)

    def test_negative_entry_reverses(self):
        d = dai_from([[0.0, -0.4], [0.4, 0.0]], ["900001", "900002"])
        net = build_network(*d)
        assert net.edges == ((1, 0, 0.4),)

    def test_complete_orientation_edge_count(self, rng):
        n = 28
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        net = build_network(*dai_from(dai, codes))
        assert len(net.edges) == n * (n - 1) // 2 == 378
        assert not net.ties

    def test_tie_drops_edge_with_warning(self):
        d = dai_from(
            [[0.0, 0.0, 0.3], [0.0, 0.0, -0.1], [-0.3, 0.1, 0.0]],
            ["900001", "900002", "900003"],
        )
        with pytest.warns(UserWarning, match="tied pair"):
            net = build_network(*d)
        assert len(net.edges) == 2
        assert net.ties == ((0, 1),)

    @pytest.mark.parametrize("n", [5, 6, 28])
    def test_tie_warning_counts_every_pair_and_lists_at_most_ten(self, n):
        ties = n * (n - 1) // 2  # 10, 15 and 378: every pair has zero net flow
        codes = [str(900000 + k) for k in range(1, n + 1)]
        with pytest.warns(UserWarning, match=f"dropped {ties} tied pair") as caught:
            net = build_network(*dai_from(np.zeros((n, n)), codes))
        assert len(net.ties) == ties and not net.edges
        message = str(caught[0].message)
        listed = message.split(": ", 1)[1].split(", ")
        assert listed[:10] == [f"{codes[i]}/{codes[j]}" for i, j in net.ties[:10]]
        assert listed[10:] == ([f"… and {ties - 10} more"] if ties > 10 else [])
        assert len(message) < 256

    def test_weights_are_dai_magnitudes(self, rng):
        n = 6
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        net = build_network(*dai_from(dai, codes))
        for i, j, w in net.edges:
            assert w == abs(dai[i][j])

    def test_sign_flip_reverses_every_edge(self, rng):
        n = 5
        te = rng.uniform(0, 1, size=(n, n))
        dai = te - te.T
        codes = [str(900000 + k) for k in range(1, n + 1)]
        fwd = build_network(*dai_from(dai, codes))
        rev = build_network(*dai_from(-dai, codes))
        assert sorted((j, i, w) for i, j, w in fwd.edges) == sorted(rev.edges)


    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,)])
    def test_dai_shape_must_match_the_sectors(self, shape):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        with pytest.raises(ValueError, match="dai matrix shape does not match sector count"):
            build_network(sectors, np.zeros(shape))

    @pytest.mark.parametrize("w", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_weight(self, w):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        with pytest.raises(ValueError, match="positive and finite"):
            InfoFlowNetwork(sectors=sectors, edges=((0, 1, w),))

    @pytest.mark.parametrize("edges, message", [
        (((1, 1, 0.5),), "self-edge"),
        (((0, 1, 0.5), (0, 1, 0.25)), "duplicate edge for one sector pair"),
        (((0, 1, 0.5), (1, 0, 0.25)), "duplicate edge for one sector pair"),
    ])
    def test_rejects_self_edge_and_second_edge_of_a_pair(self, edges, message):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        with pytest.raises(ValueError, match=message):
            InfoFlowNetwork(sectors=sectors, edges=edges)
