import math

import numpy as np
import pytest

from conftest import flow_matrix, random_complete_network
from oracles import (
    enumerate_arborescences,
    maximal_path_by_leaves,
    min_arborescence_by_rounds,
    path_candidates,
)

from infoflow import arborescence
from infoflow.arborescence import (
    Arborescence,
    arborescence_to_dot,
    arborescence_to_json,
    degrees,
    max_spanning_arborescence,
    maximal_information_flow_path,
)
from infoflow.network import InfoFlowNetwork
from infoflow.timeseries import SectorMeta


def net(codes, edges):
    return InfoFlowNetwork(tuple(SectorMeta(c) for c in codes), flow_matrix(len(codes), edges))


THREE = net(["900001", "900002", "900003"], [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0)])


class TestSolver:
    def test_three_node_example(self):
        a = max_spanning_arborescence(THREE, "outgoing")
        assert a.sectors[a.root].code == "900001"
        assert a.edges == ((0, 1, 3.0), (1, 2, 2.0))
        assert a.total_weight == 5.0

    def test_two_node_both_orientations(self):
        g = net(["900001", "900002"], [(0, 1, 0.2)])
        out = max_spanning_arborescence(g, "outgoing")
        assert out.root == 0 and out.total_weight == 0.2
        inc = max_spanning_arborescence(g, "incoming")
        assert inc.root == 1 and inc.total_weight == 0.2
        assert inc.edges == out.edges  # same flow edges, different constraint

    def test_single_node(self):
        g = net(["900001"], [])
        a = max_spanning_arborescence(g, "outgoing")
        assert a.edges == () and a.total_weight == 0.0

    def test_unreachable_root_raises(self):
        # Two components: no root reaches everything.
        g = net(
            ["900001", "900002", "900003", "900004"],
            [(0, 1, 1.0), (2, 3, 1.0)],
        )
        with pytest.raises(ValueError, match="no root"):
            max_spanning_arborescence(g, "outgoing")

    def test_light_spanning_tree_beats_heavier_forest(self):
        # Only 001 reaches every node, through two light edges; dropping
        # them leaves a heavier two-root forest, which must not win.
        g = net(
            ["900001", "900002", "900003", "900004"],
            [(1, 2, 10.0), (2, 3, 10.0), (3, 1, 0.01), (0, 2, 0.01)],
        )
        a = max_spanning_arborescence(g, "outgoing")
        assert a.root == 0
        assert a.edges == ((0, 2, 0.01), (2, 3, 10.0), (3, 1, 0.01))
        assert a.total_weight == math.fsum([0.01, 10.0, 0.01])

    def test_matches_enumerator_on_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            g = random_complete_network(n, rng)
            for orientation in ("outgoing", "incoming"):
                solved = max_spanning_arborescence(g, orientation)
                brute = enumerate_arborescences(g, orientation)
                assert solved.total_weight == brute.total_weight
                assert solved.edges == brute.edges
                assert solved.root == brute.root

    def test_matches_enumerator_on_planted_ties(self):
        # Weights from a three-value set make equal totals common, so the
        # root and edge tie rules decide; roots, edges and totals must all
        # agree exactly with the enumerator.
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(3, 7))
            g = random_complete_network(n, rng, weights=(0.25, 0.5, 0.75))
            for orientation in ("outgoing", "incoming"):
                solved = max_spanning_arborescence(g, orientation)
                brute = enumerate_arborescences(g, orientation)
                assert solved.total_weight == brute.total_weight
                assert solved.edges == brute.edges
                assert solved.root == brute.root

    @pytest.mark.parametrize("n", [28, 60, 99])
    def test_matches_networkx_at_realistic_sizes(self, n):
        nx = pytest.importorskip("networkx")
        g = random_complete_network(n, np.random.default_rng(n))
        for orientation in ("outgoing", "incoming"):
            solved = max_spanning_arborescence(g, orientation)
            assert isinstance(solved, Arborescence)  # validated on construction
            assert set(solved.edges) <= set(g.edges)
            graph = nx.DiGraph()
            for i, j, w in g.edges:
                u, v = (i, j) if orientation == "outgoing" else (j, i)
                graph.add_edge(u, v, weight=w)
            tree = nx.maximum_spanning_arborescence(graph, attr="weight")
            expected = math.fsum(w for _, _, w in tree.edges(data="weight"))
            assert solved.total_weight == pytest.approx(expected, rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [28, 60, 99])
    def test_matches_rounds_oracle_on_planted_ties(self, n, monkeypatch):
        # Planted ties at realistic sizes, against the solver that rescans
        # every edge in rounds: same root and edges, exactly.
        rng = np.random.default_rng(n)
        for _ in range(3):
            g = random_complete_network(n, rng, weights=(0.25, 0.5, 0.75))
            for orientation in ("outgoing", "incoming"):
                solved = max_spanning_arborescence(g, orientation)
                with monkeypatch.context() as patched:
                    patched.setattr(arborescence, "_min_arborescence",
                                    min_arborescence_by_rounds)
                    oracle = max_spanning_arborescence(g, orientation)
                assert (solved.root, solved.edges) == (oracle.root, oracle.edges)

    def test_incoming_on_cycle_heavy_graph(self):
        # Cycle 1->2->3->1 plus escape edges; forces contraction logic.
        g = net(
            ["900001", "900002", "900003", "900004"],
            [(0, 1, 10.0), (1, 2, 10.0), (2, 0, 10.0), (0, 3, 1.0), (3, 1, 0.5)],
        )
        for orientation in ("outgoing", "incoming"):
            solved = max_spanning_arborescence(g, orientation)
            brute = enumerate_arborescences(g, orientation)
            assert solved.total_weight == brute.total_weight
            assert solved.edges == brute.edges

    def test_scaling_leaves_edge_set_unchanged(self, rng):
        g = random_complete_network(5, rng)
        base = max_spanning_arborescence(g, "outgoing")
        scaled = max_spanning_arborescence(InfoFlowNetwork(g.sectors, 7.5 * g.dai), "outgoing")
        assert [(i, j) for i, j, _ in base.edges] == [(i, j) for i, j, _ in scaled.edges]

    def test_orientation_duality_exact(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            g = random_complete_network(n, rng)
            incoming = max_spanning_arborescence(g, "incoming")
            out_of_reversed = max_spanning_arborescence(InfoFlowNetwork(g.sectors, -g.dai),
                                                        "outgoing")
            flipped = tuple(sorted(
                (j, i, w) for i, j, w in out_of_reversed.edges
            ))
            assert tuple(sorted(incoming.edges)) == flipped
            assert incoming.root == out_of_reversed.root
            assert incoming.total_weight == out_of_reversed.total_weight

    def test_structural_invariants_on_random_networks(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            g = random_complete_network(n, rng)
            for orientation in ("outgoing", "incoming"):
                a = max_spanning_arborescence(g, orientation)
                assert len(a.edges) == n - 1  # full validation runs in __post_init__
                deg = degrees(a)
                root_code = a.sectors[a.root].code
                if orientation == "outgoing":
                    assert deg[root_code][0] == 0
                    assert all(d[0] == 1 for c, d in deg.items() if c != root_code)
                else:
                    assert deg[root_code][1] == 0
                    assert all(d[1] == 1 for c, d in deg.items() if c != root_code)


class TestEnumerator:
    def test_three_node_example(self):
        a = enumerate_arborescences(THREE, "outgoing")
        assert a.total_weight == 5.0

    def test_star_is_unique(self):
        g = net(
            ["900001", "900002", "900003"],
            [(0, 1, 0.4), (0, 2, 0.9)],
        )
        a = enumerate_arborescences(g, "outgoing")
        assert a.root == 0
        assert a.edges == ((0, 1, 0.4), (0, 2, 0.9))

    def test_single_node(self):
        a = enumerate_arborescences(net(["900001"], []), "outgoing")
        assert a.edges == () and a.total_weight == 0.0

    def test_size_cap(self, rng):
        g = random_complete_network(9, rng)
        with pytest.raises(ValueError, match="enumeration limited"):
            enumerate_arborescences(g)


class TestPaths:
    def test_chain_path(self):
        a = max_spanning_arborescence(THREE, "outgoing")
        p = maximal_information_flow_path(a)
        assert p.codes == ("001", "002", "003")
        assert p.total_weight == 5.0
        assert p.length == 3

    def test_star_picks_best_single_edge(self):
        g = net(
            ["900001", "900002", "900003", "900004"],
            [(0, 1, 0.5), (0, 2, 0.9), (0, 3, 0.7)],
        )
        a = max_spanning_arborescence(g, "outgoing")
        p = maximal_information_flow_path(a)
        assert p.codes == ("001", "003")
        assert p.total_weight == 0.9

    def test_incoming_path_reported_in_flow_order(self):
        # 1 -> 2 -> 3 flow; incoming tree sinks at 3.
        g = net(["900001", "900002", "900003"], [(0, 1, 1.0), (1, 2, 2.0)])
        a = max_spanning_arborescence(g, "incoming")
        p = maximal_information_flow_path(a)
        assert p.codes == ("001", "002", "003")
        assert p.total_weight == 3.0

    def test_path_weight_bounded_by_tree_weight(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            g = random_complete_network(n, rng)
            a = max_spanning_arborescence(g, "outgoing")
            p = maximal_information_flow_path(a)
            assert p.total_weight <= a.total_weight + 1e-12
            chain = len(p.nodes) == n
            if chain:
                assert p.total_weight == pytest.approx(a.total_weight, abs=1e-12)

    @pytest.mark.parametrize("orientation", ["outgoing", "incoming"])
    def test_matches_candidate_enumeration_with_planted_ties(self, rng, orientation):
        # Weights from a three-value set: many paths have equal totals, which
        # the sector indices in flow order must settle, whatever the codes;
        # 0.1 + 0.2 != 0.3 in floating point, so near-ties must not be
        # mistaken for ties.
        settled_by_order = 0
        for _ in range(300):
            n = int(rng.integers(1, 29))
            sectors = tuple(SectorMeta(str(c)) for c in rng.choice(900, n, replace=False) + 900100)
            order = rng.permutation(n)
            edges = []
            for k in range(1, n):
                parent, child = int(order[rng.integers(k)]), int(order[k])
                w = float(rng.choice([0.1, 0.2, 0.3]))
                edges.append((parent, child, w) if orientation == "outgoing"
                             else (child, parent, w))
            a = Arborescence(orientation, int(order[0]), sectors, tuple(edges))
            p = maximal_information_flow_path(a)
            assert (p.nodes, p.total_weight) == maximal_path_by_leaves(a)
            totals = [total for total, _, _ in path_candidates(a)]
            settled_by_order += totals.count(p.total_weight) > 1
        assert settled_by_order > 20

    def test_single_node_path(self):
        a = max_spanning_arborescence(net(["900001"], []), "outgoing")
        p = maximal_information_flow_path(a)
        assert p.codes == ("001",) and p.total_weight == 0.0


class TestDegrees:
    def test_chain_degrees(self):
        a = max_spanning_arborescence(THREE, "outgoing")
        deg = degrees(a)
        assert deg["900001"] == (0, 1, 1)
        assert deg["900002"] == (1, 1, 2)
        assert deg["900003"] == (1, 0, 1)

    def test_star_hub_degree(self):
        g = net(
            [f"90000{k}" for k in range(1, 6)],
            [(0, k, 1.0 + k) for k in range(1, 5)],
        )
        a = max_spanning_arborescence(g, "outgoing")
        assert degrees(a)["900001"] == (0, 4, 4)

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_complete_network(n, rng)
            a = max_spanning_arborescence(g, "outgoing")
            total = sum(d[2] for d in degrees(a).values())
            assert total == 2 * (n - 1)


class TestExports:
    def test_dot_highlights_path(self):
        a = max_spanning_arborescence(THREE, "outgoing")
        p = maximal_information_flow_path(a)
        text = arborescence_to_dot(a, p)
        assert '"001" [shape=square, style=filled, fillcolor=yellow];' in text
        assert 'color=red, penwidth=2.0' in text
        assert text.count("->") == 2

    def test_json_contains_path_and_root(self):
        import json

        a = max_spanning_arborescence(THREE, "outgoing")
        p = maximal_information_flow_path(a)
        payload = json.loads(arborescence_to_json(a, p))
        assert payload["root"] == "900001"
        assert payload["maximal_path"]["sectors"] == ["001", "002", "003"]
        assert payload["total_weight_bits"] == 5.0

    def test_invalid_arborescence_rejected(self):
        sectors = tuple(SectorMeta(c) for c in ["900001", "900002", "900003"])
        with pytest.raises(ValueError, match="N-1"):
            Arborescence("outgoing", 0, sectors, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="two tree predecessors"):
            Arborescence("outgoing", 0, sectors, ((0, 1, 1.0), (2, 1, 1.0)))

    @pytest.mark.parametrize("orientation, root, edges, message", [
        ("sideways", 0, ((0, 1, 1.0), (1, 2, 1.0)), "orientation must be one of"),
        ("outgoing", 3, ((0, 1, 1.0), (1, 2, 1.0)), "root index out of range"),
        ("outgoing", 0, ((1, 0, 1.0), (1, 2, 1.0)), "root must not have a tree predecessor"),
        ("incoming", 0, ((0, 1, 1.0), (0, 2, 1.0)), "root must not have a tree predecessor"),
        # Index -1 wraps to the last sector when sorting, but no edge enters node 2.
        ("outgoing", 0, ((0, 1, 1.0), (0, -1, 1.0)), "some node is disconnected"),
        ("outgoing", 0, ((1, 2, 1.0), (2, 1, 1.0)), "directed cycle in arborescence"),
    ])
    def test_invalid_arborescence_names_the_fault(self, orientation, root, edges, message):
        sectors = tuple(SectorMeta(c) for c in ["900001", "900002", "900003"])
        with pytest.raises(ValueError, match=message):
            Arborescence(orientation, root, sectors, edges)
