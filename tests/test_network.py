import warnings

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
        te.T[0, 1] = te[0, 1]  # one tied pair, which stays tied
        codes = [str(900000 + k) for k in range(1, n + 1)]
        fwd = InfoFlowNetwork(*dai_from(te - te.T, codes))
        rev = InfoFlowNetwork(fwd.sectors, -fwd.dai)
        assert len(fwd.edges) == 9
        assert sorted((j, i, w) for i, j, w in fwd.edges) == sorted(rev.edges)
        assert rev.ties == fwd.ties == ((0, 1),)

    @pytest.mark.parametrize("n", [2, 3, 28, 99])
    def test_matches_a_double_loop_over_pairs(self, n):
        # Exactly antisymmetric net flows, about a fifth of the pairs tied.
        rng = np.random.default_rng(n)
        codes = [str(900000 + k) for k in range(1, n + 1)]
        planted = 0
        for _ in range(10):
            te = rng.uniform(0, 1, size=(n, n))
            tied = np.triu(rng.random((n, n)) < 0.2, 1)
            te.T[tied] = te[tied]
            dai = te - te.T
            edges = [(i, j, dai[i, j]) for i in range(n) for j in range(n) if dai[i, j] > 0]
            ties = [(i, j) for i in range(n) for j in range(i + 1, n) if dai[i, j] == 0]
            planted += len(ties)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                net = build_network(*dai_from(dai, codes))
            assert net.edges == tuple(edges)
            assert net.ties == tuple(ties)
        assert planted > 0

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,)])
    def test_dai_shape_must_match_the_sectors(self, shape):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        with pytest.raises(ValueError, match="dai matrix shape does not match sector count"):
            build_network(sectors, np.zeros(shape))

    @pytest.mark.parametrize("dai, message", [
        ([[0.0, -0.2], [-0.2, 0.0]], "dai matrix is not exactly antisymmetric"),
        ([[0.0, np.nan], [np.nan, 0.0]], "dai matrix has a non-finite entry"),
        ([[0.0, np.inf], [-np.inf, 0.0]], "dai matrix has a non-finite entry"),
        ([[0.0, -np.inf], [np.inf, 0.0]], "dai matrix has a non-finite entry"),
        ([[0.0, 0.3], [0.1, 0.0]], "dai matrix is not exactly antisymmetric"),
        ([[0.5, 0.0], [0.0, 0.0]], "dai matrix is not exactly antisymmetric"),
        (np.zeros((3, 3)), "dai matrix shape does not match sector count"),
    ], ids=["both-negative", "nan-pair", "inf", "minus-inf", "unequal-pair",
            "self-flow", "wrong-shape"])
    def test_refuses_a_matrix_that_is_not_a_net_flow(self, dai, message):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        for make in (InfoFlowNetwork, build_network):
            with pytest.raises(ValueError, match=message):
                make(sectors, dai)

    def test_matrix_is_a_read_only_copy_outside_equality(self):
        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        dai = np.array([[0.0, 0.2], [-0.2, 0.0]])
        net = InfoFlowNetwork(sectors, dai)
        dai[0, 1] = 0.3
        assert net.dai[0, 1] == 0.2 and net.dai.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            net.dai[0, 1] = 0.3
        same = InfoFlowNetwork(sectors, [[0, 0.2], [-0.2, 0]])
        assert same == net and hash(same) == hash(net)
        assert net != InfoFlowNetwork(sectors, -net.dai)
