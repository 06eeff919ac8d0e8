"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: explicit loops, Counter-based
counting, and mpmath arbitrary precision where rounding matters.  None of
it shares code with the library paths it checks.
"""

from collections import Counter
from datetime import date, timedelta
from fractions import Fraction
from itertools import product
from math import fsum, log2

import mpmath as mp

from infoflow.arborescence import ORIENTATIONS, Arborescence

mp.mp.dps = 50

# Exhaustive enumeration is exponential in node count; cap it firmly.
_MAX_ENUMERATION_NODES = 8


def _te_counts(source, target):
    """Counters of (next, now, source) triplets and of their marginals."""
    source = list(source)
    target = list(target)
    assert len(source) == len(target) and len(source) >= 2
    triplets = Counter(
        (target[t + 1], target[t], source[t]) for t in range(len(target) - 1)
    )
    pairs_ab = Counter((a, b) for a, b, _ in triplets.elements())
    pairs_bc = Counter((b, c) for _, b, c in triplets.elements())
    singles_b = Counter(b for _, b, _ in triplets.elements())
    return triplets, pairs_ab, pairs_bc, singles_b


def te_bruteforce(source, target, q):
    """Transfer entropy source -> target by direct summation over all states.

    Probabilities are plain ratios of Counter counts; the sum runs over the
    full q^3 state space and skips states with zero triplet count.
    """
    triplets, pairs_ab, pairs_bc, singles_b = _te_counts(source, target)
    n_tri = len(target) - 1

    total = 0.0
    for a, b, c in product(range(1, q + 1), repeat=3):
        n_abc = triplets[(a, b, c)]
        if n_abc == 0:
            continue
        p_abc = n_abc / n_tri
        p_ab = pairs_ab[(a, b)] / n_tri
        p_bc = pairs_bc[(b, c)] / n_tri
        p_b = singles_b[b] / n_tri
        total += p_abc * log2(p_abc * p_b / (p_ab * p_bc))
    return total


def te_log2_exponents(source, target):
    """N * TE(source -> target) in exact form: {prime p: integer c_p} with
    N * TE = sum c_p log2(p).  Logs of distinct primes are linearly
    independent over the rationals, so two estimates are exactly equal, or
    exactly zero, precisely when these maps are equal, or empty.
    """
    triplets, pairs_ab, pairs_bc, singles_b = _te_counts(source, target)
    exponents = Counter()
    for counts, sign in ((triplets, 1), (pairs_ab, -1), (pairs_bc, -1), (singles_b, 1)):
        for k in counts.values():
            rest, p = k, 2
            while rest > 1:
                while rest % p == 0:
                    exponents[p] += sign * k
                    rest //= p
                p += 1
    return {p: c for p, c in exponents.items() if c}


def stats_mpmath(values):
    """(mean, max, min, std, skewness, kurtosis, jb) at 50 decimal digits."""
    xs = [mp.mpf(repr(float(v))) for v in values]
    n = len(xs)
    mean = mp.fsum(xs) / n
    centered = [x - mean for x in xs]
    m2 = mp.fsum(c**2 for c in centered) / n
    m3 = mp.fsum(c**3 for c in centered) / n
    m4 = mp.fsum(c**4 for c in centered) / n
    std = mp.sqrt(mp.fsum(c**2 for c in centered) / (n - 1))
    skew = m3 / m2**mp.mpf("1.5")
    kurt = m4 / m2**2
    jb = mp.mpf(n) / 6 * (skew**2 + (kurt - 3) ** 2 / 4)
    return (
        float(mean),
        float(max(xs)),
        float(min(xs)),
        float(std),
        float(skew),
        float(kurt),
        float(jb),
    )


def pearson_mpmath(x, y):
    xs = [mp.mpf(repr(float(v))) for v in x]
    ys = [mp.mpf(repr(float(v))) for v in y]
    n = len(xs)
    mx = mp.fsum(xs) / n
    my = mp.fsum(ys) / n
    num = mp.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = mp.sqrt(mp.fsum((a - mx) ** 2 for a in xs)) * mp.sqrt(
        mp.fsum((b - my) ** 2 for b in ys)
    )
    return float(num / den)


def log_returns_mpmath(closes):
    xs = [mp.mpf(repr(float(v))) for v in closes]
    return [float(mp.log(b) - mp.log(a)) for a, b in zip(xs, xs[1:])]


def consecutive_dates(n, start=date(2000, 1, 3)):
    return tuple(start + timedelta(days=t) for t in range(n))


def enumerate_arborescences(g, orientation="outgoing"):
    """Exhaustive maximum spanning arborescence for small networks.

    Tries every in-edge assignment for every root and keeps the best under
    the solver's tie rule: largest exact total weight, then smaller root
    index, then the lexicographically smallest sorted list of
    (source index, target index) edge pairs.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    n = len(g.sectors)
    if n > _MAX_ENUMERATION_NODES:
        raise ValueError(f"enumeration limited to {_MAX_ENUMERATION_NODES} nodes")
    if n == 0:
        raise ValueError("empty network")
    if n == 1:
        return Arborescence(orientation, 0, g.sectors, ())

    # Totals are compared exactly, as integer multiples of 1/denominator.
    exact = [Fraction(w) for _, _, w in g.edges]
    denominator = max((f.denominator for f in exact), default=1)
    # Tree predecessor of each node: the flow source when outgoing, the
    # flow target when incoming.
    in_edges = {v: [] for v in range(n)}
    for (i, j, w), f in zip(g.edges, exact):
        child, pred = (j, i) if orientation == "outgoing" else (i, j)
        in_edges[child].append((pred, (i, j, w), int(f * denominator)))

    best_key = None
    best = None
    for root in range(n):
        others = [v for v in range(n) if v != root]
        for choice in product(*(in_edges[v] for v in others)):
            pred = {v: p for v, (p, _, _) in zip(others, choice)}
            if not all(_reaches(pred, v, root, n) for v in others):
                continue
            edges = [e for _, e, _ in choice]
            key = (
                -sum(units for _, _, units in choice),
                root,
                sorted((i, j) for i, j, _ in edges),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = (root, edges)
    if best is None:
        raise ValueError("no root reaches all nodes")
    root, edges = best
    return Arborescence(orientation, root, g.sectors, tuple(edges))


def path_candidates(a):
    """Every documented maximal-path candidate: (total, sector codes, nodes).

    Candidates are the paths between the root and each tree leaf: root to
    leaf in an outgoing tree, leaf to root in an incoming one, listed in
    flow order.  Each is walked from its leaf up the tree-predecessor
    links and weighed with ``math.fsum``.
    """
    # pred[child] = (tree predecessor, edge weight); a leaf is no predecessor.
    pred = {}
    for i, j, w in a.edges:
        child, parent = (j, i) if a.orientation == "outgoing" else (i, j)
        pred[child] = (parent, w)
    parents = {parent for parent, _ in pred.values()}
    candidates = []
    for leaf in (v for v in range(len(a.sectors)) if v not in parents):
        nodes, weights = [leaf], []
        while nodes[-1] != a.root:
            parent, w = pred[nodes[-1]]
            nodes.append(parent)
            weights.append(w)
        if a.orientation == "outgoing":
            nodes.reverse()
        candidates.append((fsum(weights), [a.sectors[v].code for v in nodes], nodes))
    return candidates


def maximal_path_by_leaves(a):
    """The candidate with the largest total, then the smallest indices in flow order.

    Returns (sectors in flow order, total).
    """
    total, _, nodes = min(path_candidates(a), key=lambda c: (-c[0], c[2]))
    return tuple(a.sectors[v] for v in nodes), total


def min_arborescence_by_rounds(
    n_nodes: int,
    edges: list[tuple[int, int, int, int]],
) -> list[int]:
    """Chu-Liu/Edmonds in rounds: a drop-in for ``arborescence._min_arborescence``.

    The library's former solver, kept as an independent check.  ``edges``
    holds (src, dst, cost, edge_id) with exact integer costs, the root is
    the last node, and every node must be reachable from it.  Each round
    rescans every edge and takes the cheapest in-edge of every other node.
    If these close cycles, each cycle becomes one node, every edge entering
    it is charged the cost of the in-edge it would displace, and the round
    repeats on the smaller graph.  Unwinding the rounds, each cycle keeps
    its edges except the displaced one.
    """
    root = n_nodes - 1
    rounds = []
    while True:
        best_cost: list[int] = [0] * n_nodes
        best_src = [root] * n_nodes
        best_eid = [-1] * n_nodes
        for u, v, c, eid in edges:
            if v != root and (best_eid[v] < 0 or c < best_cost[v]):
                best_cost[v], best_src[v], best_eid[v] = c, u, eid
        if best_eid.count(-1) > 1:
            raise ValueError("node unreachable from the root")

        cycle_of = [-1] * n_nodes
        cycles: list[list[int]] = []
        walk_of = [-1] * n_nodes
        for start in range(n_nodes):
            v = start
            while v != root and walk_of[v] < 0:
                walk_of[v] = start
                v = best_src[v]
            if v != root and walk_of[v] == start:  # this walk closed a cycle
                cycle = [v]
                u = best_src[v]
                while u != v:
                    cycle.append(u)
                    u = best_src[u]
                for u in cycle:
                    cycle_of[u] = len(cycles)
                cycles.append(cycle)
        if not cycles:
            chosen = [eid for v, eid in enumerate(best_eid) if v != root]
            break

        new_id = list(cycle_of)
        n_next = len(cycles)
        for v in range(n_nodes):
            if new_id[v] < 0:
                new_id[v] = n_next
                n_next += 1
        new_root = new_id[root]
        head: dict[int, int] = {}  # edge id -> cycle node it enters
        contracted = []
        for u, v, c, eid in edges:
            nu, nv = new_id[u], new_id[v]
            if nu == nv or nv == new_root:
                continue
            if cycle_of[v] >= 0:
                c -= best_cost[v]
                head[eid] = v
            contracted.append((nu, nv, c, eid))
        rounds.append((cycles, best_eid, head))
        n_nodes, edges, root = n_next, contracted, new_root

    for cycles, best_eid, head in reversed(rounds):
        entered = {head[eid] for eid in chosen if eid in head}
        chosen += [best_eid[v] for cycle in cycles for v in cycle if v not in entered]
    return chosen


def _reaches(pred, start, root, n):
    node = start
    for _ in range(n):
        if node == root:
            return True
        node = pred[node]
    return node == root
