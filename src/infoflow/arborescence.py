"""Maximum spanning arborescences and maximal information-flow paths.

The outgoing arborescence is a spanning out-tree: one root (the
information source) with every other node having exactly one incoming
edge.  The incoming arborescence is the mirror image (one sink, every
other node with exactly one outgoing edge) and is solved by running the
same solver on the edge-reversed graph and reversing the result back.

The solver runs Chu-Liu/Edmonds cycle contraction once per tree
(Edmonds 1967), in Tarjan's (1977) form: cycles are contracted one at a
time, and after each only the new node picks a new cheapest in-edge, so
no round rescans every edge.  A virtual super-root has an edge to every
sector, each costlier than any real tree, so the minimum arborescence from
it takes one such edge per part of the network that no other part reaches
(one when a root exists, and its head is the best root).  Costs are
exact integers: the super-root edge count, the negated weight and a
tie key, packed lexicographically.  The tie key makes the optimum unique
and equal to the documented rule: largest total weight, then the smaller
root index, then the smallest sorted list of edge index pairs.  Path ties
also go to smaller indices.  A ``Panel`` keeps its sectors in code order,
so each tie goes to the smaller sector code, and results are deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .network import InfoFlowNetwork
from .timeseries import SectorMeta

ORIENTATIONS = ("outgoing", "incoming")

@dataclass(frozen=True)
class Arborescence:
    """Spanning directed tree over all sectors, edges in flow direction and index order."""

    orientation: str
    root: int
    sectors: tuple[SectorMeta, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        n = len(self.sectors)
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        if not 0 <= self.root < n:
            raise ValueError("root index out of range")
        if len(self.edges) != n - 1:
            raise ValueError("arborescence must have exactly N-1 edges")
        # Outgoing: unique parent per non-root node; incoming: unique child.
        parent: dict[int, int] = {}
        for src, dst, w in self.edges:
            child, par = (dst, src) if self.orientation == "outgoing" else (src, dst)
            if child == self.root:
                raise ValueError("root must not have a tree predecessor")
            if child in parent:
                raise ValueError("node with two tree predecessors")
            parent[child] = par
        if parent.keys() != set(range(n)) - {self.root}:
            raise ValueError("some node is disconnected")
        for start in parent:
            node, steps = start, 0
            while node != self.root:
                node = parent[node]
                steps += 1
                if steps > n:
                    raise ValueError("directed cycle in arborescence")

    @property
    def root_sector(self) -> SectorMeta:
        return self.sectors[self.root]

    @property
    def total_weight(self) -> float:
        """Sum of the edge weights, exactly rounded (``math.fsum``)."""
        return math.fsum(w for _, _, w in self.edges)


@dataclass(frozen=True)
class InfoFlowPath:
    """Directed path inside an arborescence, nodes listed in flow order."""

    nodes: tuple[SectorMeta, ...]
    total_weight: float

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.short_code for s in self.nodes)


def _min_arborescence(n_nodes: int, edges: list[tuple[int, int, int, int]]) -> list[int]:
    """Chu-Liu/Edmonds: edge ids of the minimum-cost arborescence from the super-root.

    The super-root is the last node and has an edge to every other node.
    ``edges`` holds (src, dst, cost, edge_id) with exact integer costs, at
    most one per (src, dst) pair.  Each node keeps, per source, its
    cheapest in-edge.  A walk takes the cheapest in-edge of a node and
    steps to its source, until it reaches the root or a node already known
    to reach it.  When the walk comes back onto itself, the cycle becomes one
    new node: every edge entering the cycle is charged the cost of the
    in-edge it would displace, the cheapest per source is kept, and the walk
    goes on from the new node alone, since no other node's choice changed.
    Nodes are resolved to the cycle node that holds them by union-find.
    Unwinding the contractions, each cycle keeps its edges except the
    displaced one.
    """
    root = n_nodes - 1
    parent = list(range(n_nodes))  # union-find over nodes and cycle nodes

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    # in_edges[v]: source -> (cost, edge id, source) of v's cheapest edge from it.
    in_edges: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n_nodes)]
    for u, v, c, eid in edges:
        in_edges[v][u] = (c, eid, u)
    best_cost: list[int] = [0] * n_nodes
    best_eid = [-1] * n_nodes
    state = [0] * n_nodes  # 0 not walked, 1 on the walk, 2 reaches the root
    state[root] = 2
    rounds = []  # (cycle node, its members, their best edge ids, head)

    for start in range(n_nodes):
        if state[start]:
            continue
        walk = [start]
        state[start] = 1
        while True:
            v = walk[-1]
            best_cost[v], best_eid[v], src = min(in_edges[v].values())
            u = find(src)
            if state[u] == 2:
                break
            if state[u] == 0:
                state[u] = 1
                walk.append(u)
                continue
            # u is on the walk: the walk from u on is a cycle.
            cycle = walk[walk.index(u):]
            del walk[len(walk) - len(cycle):]
            node = len(parent)
            parent.append(node)
            merged: dict[int, tuple[int, int, int]] = {}
            head: dict[int, int] = {}  # edge id -> cycle member it enters
            for w in cycle:
                parent[w] = node
            for w in cycle:
                for c, e, s in in_edges[w].values():
                    if parent[s] != s:
                        s = find(s)
                    if s == node:
                        continue
                    c -= best_cost[w]
                    head[e] = w
                    known = merged.get(s)
                    if known is None or c < known[0]:
                        merged[s] = (c, e, s)
            in_edges.append(merged)
            best_cost.append(0)
            best_eid.append(-1)
            state.append(1)
            rounds.append((node, cycle, [best_eid[w] for w in cycle], head))
            walk.append(node)
        for v in walk:
            state[v] = 2

    enters = {v: best_eid[v] for v in range(len(parent)) if parent[v] == v and v != root}
    for node, cycle, cycle_eids, head in reversed(rounds):
        entered = head[enters[node]]
        for w, eid in zip(cycle, cycle_eids):
            enters[w] = enters[node] if w == entered else eid
    return [enters[v] for v in range(root)]


def max_spanning_arborescence(g: InfoFlowNetwork, orientation: str = "outgoing") -> Arborescence:
    """Maximum spanning arborescence over all roots, found by one solve.

    The winner has the largest exact total weight; ties go to the smaller
    root index, then to the lexicographically smallest sorted list of
    (source index, target index) edges.  A virtual super-root with an edge
    to every sector lets one minimum-arborescence solve choose the root.
    Each edge cost is the lexicographic triple (super-root edges, -weight,
    -key) packed into one exact integer.  The key is 2**(K - 1 - rank):
    super-root edges rank first by root index, then real edges in their
    (source index, target index) order in ``g.edges``, so a larger key sum
    is exactly the tie rule above.  If no root reaches every node (possible
    when tied pairs were dropped), the solve takes one super-root edge into
    each part that no other part reaches, and the refusal names their heads
    in index order.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    n = len(g.sectors)
    if n == 0:
        raise ValueError("empty network")

    m = len(g.edges)
    # Floats are dyadic rationals, so one power-of-two scale makes every
    # weight an exact integer and every reduced cost below exact too.
    ratios = [w.as_integer_ratio() for _, _, w in g.edges]
    scale = max((den for _, den in ratios), default=1)
    weights = [num * (scale // den) for num, den in ratios]
    key_bits = n + m
    super_cost = (n * max(weights, default=0) + 1) << key_bits  # beats any real tree

    work = [(n, v, super_cost - (1 << (key_bits - 1 - v)), m + v) for v in range(n)]
    for eid, ((i, j, _), w) in enumerate(zip(g.edges, weights)):  # rank n + eid
        u, v = (i, j) if orientation == "outgoing" else (j, i)
        work.append((u, v, -(w << key_bits) - (1 << (m - 1 - eid)), eid))

    chosen = sorted(_min_arborescence(n + 1, work))  # super-root edges sort last
    roots = [eid - m for eid in chosen if eid >= m]
    if len(roots) != 1:
        raise ValueError("no root reaches all nodes: the network splits into parts rooted at "
                         f"sectors {', '.join(g.sectors[v].code for v in roots)}")
    return Arborescence(orientation, roots[0], g.sectors, tuple(g.edges[e] for e in chosen[:-1]))


def maximal_information_flow_path(a: Arborescence) -> InfoFlowPath:
    """Heaviest directed path through the arborescence.

    Outgoing trees: root-to-leaf path of maximum total weight.  Incoming
    trees: leaf-to-root path, reported in flow order.  Exact weight ties
    go to the lexicographically smallest sector-index sequence.  An incoming
    tree's leaf-to-root paths are the root-to-leaf paths of its reversed
    edges, read backwards, so one walk from the root serves both.  Totals
    are ``math.fsum``s, exactly rounded, so the walking order cannot
    change them.
    """
    forward = a.orientation == "outgoing"
    children: dict[int, list[tuple[int, float]]] = {}
    for i, j, w in a.edges:
        parent, child = (i, j) if forward else (j, i)
        children.setdefault(parent, []).append((child, w))

    best_key = best = None
    stack = [([a.root], [])]
    while stack:
        trail, weights = stack.pop()
        kids = children.get(trail[-1])
        if kids:
            stack.extend((trail + [kid], weights + [w]) for kid, w in kids)
            continue
        flow = trail if forward else trail[::-1]
        total = math.fsum(weights)
        key = (-total, flow)
        if best_key is None or key < best_key:
            best_key, best = key, (flow, total)
    flow, total = best
    return InfoFlowPath(nodes=tuple(a.sectors[v] for v in flow), total_weight=total)


def degrees(a: Arborescence) -> dict[str, tuple[int, int, int]]:
    """Per-sector (in-degree, out-degree, total) within the arborescence."""
    n = len(a.sectors)
    ins = [0] * n
    outs = [0] * n
    for i, j, _ in a.edges:
        outs[i] += 1
        ins[j] += 1
    return {
        a.sectors[v].code: (ins[v], outs[v], ins[v] + outs[v]) for v in range(n)
    }


def edge_list(a: Arborescence) -> list[dict]:
    """JSON-ready tree edges by sector code, in the tree's edge order."""
    return [
        {"source": a.sectors[i].code, "target": a.sectors[j].code, "weight_bits": w}
        for i, j, w in a.edges
    ]


def arborescence_to_json(a: Arborescence, path: InfoFlowPath) -> str:
    payload = {
        "orientation": a.orientation,
        "root": a.root_sector.code,
        "total_weight_bits": a.total_weight,
        "edges": edge_list(a),
        "maximal_path": {
            "sectors": list(path.codes),
            "total_weight_bits": path.total_weight,
            "length": path.length,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def arborescence_to_dot(a: Arborescence, path: InfoFlowPath, name: str = "msa") -> str:
    """DOT rendering; the maximal path gets red edges and square yellow nodes."""
    path_nodes = set(path.codes)
    path_edges = set(zip(path.codes, path.codes[1:]))

    lines = [f"digraph {name} {{"]
    for s in a.sectors:
        label = s.short_code
        if label in path_nodes:
            lines.append(
                f'  "{label}" [shape=square, style=filled, fillcolor=yellow];'
            )
        else:
            lines.append(f'  "{label}";')
    for i, j, w in a.edges:
        src = a.sectors[i].short_code
        dst = a.sectors[j].short_code
        attrs = f'label="{w:.4f}"'
        if (src, dst) in path_edges:
            attrs += ", color=red, penwidth=2.0"
        lines.append(f'  "{src}" -> "{dst}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
