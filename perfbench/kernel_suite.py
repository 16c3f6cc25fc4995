"""Kernel-layer measurement: the connected common-subgraph search alone.

Random attributed graph pairs of growing size (the suite of
``benchmarks/bench_mcs.py``) plus the diisocyanate/urethane fixture pair,
timed on whichever backend ``templater.kernels`` selected.  Every returned
mapping is checked to be a label-preserving, induced, connected common
subgraph; on the compiled backend the results must also equal the
pure-Python twin's.
"""

from __future__ import annotations

import os
import random
import time

from templater.kernels import BACKEND, max_common_connected_subgraph, pure_python_kernel

SIZES = (10, 14, 18, 22)
PAIRS_PER_SIZE = 20
BUDGET = 10**8


def random_pair(rng: random.Random, n: int, labels: int = 4, p_edge: float = 0.3):
    def side():
        node_labels = [rng.randrange(labels) for _ in range(n)]
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_edge:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return node_labels, masks

    labels_r, adj_r = side()
    labels_p, adj_p = side()
    return labels_r, labels_p, adj_r, adj_p


def fixture_pair(fixture_dir: str):
    """The diisocyanate molecule against the urethane adduct, in kernel form:
    one label per (mass, type) and one adjacency bitmask per atom."""
    from templater.graph_core import build_unified_graph
    from templater.lammps_io import parse_data_file

    codes: dict[tuple[float, int], int] = {}
    sides = []
    for name, side in (("mdi.data", "reactant"), ("polyaddition_product.data", "product")):
        with open(os.path.join(fixture_dir, name), encoding="ascii") as handle:
            graph = build_unified_graph([parse_data_file(handle.read())], side)
        nodes = graph.sorted_gids()
        index = {gid: i for i, gid in enumerate(nodes)}
        labels = [codes.setdefault((graph.nodes[g].mass, graph.nodes[g].type_id), len(codes))
                  for g in nodes]
        masks = [sum(1 << index[n] for n in graph.neighbors(g)) for g in nodes]
        sides.append((labels, masks))
    (labels_r, adj_r), (labels_p, adj_p) = sides
    return labels_r, labels_p, adj_r, adj_p


def is_common_subgraph(case, pairs) -> bool:
    labels_r, labels_p, adj_r, adj_p = case
    rs = [v for v, _ in pairs]
    ps = [w for _, w in pairs]
    if len(set(rs)) != len(rs) or len(set(ps)) != len(ps):
        return False
    for v, w in pairs:
        if labels_r[v] != labels_p[w]:
            return False
    for v, w in pairs:
        for u, x in pairs:
            if bool(adj_r[v] >> u & 1) != bool(adj_p[w] >> x & 1):
                return False
    if not pairs:
        return True
    reached = {rs[0]}
    frontier = [rs[0]]
    while frontier:
        v = frontier.pop()
        for u in rs:
            if u not in reached and adj_r[v] >> u & 1:
                reached.add(u)
                frontier.append(u)
    return len(reached) == len(rs)


def run_suite(seed: int, fixture_dir: str) -> dict:
    """Time every case once; returns figures plus the number of bad results."""
    rng = random.Random(f"kernel-suite:{seed}")
    cases = [random_pair(rng, n) for n in SIZES for _ in range(PAIRS_PER_SIZE)]
    cases.append(fixture_pair(fixture_dir))
    elapsed = 0.0
    expansions = 0
    bad = 0
    for case in cases:
        started = time.perf_counter()
        pairs, spent = max_common_connected_subgraph(*case, BUDGET)
        elapsed += time.perf_counter() - started
        expansions += spent
        if not is_common_subgraph(case, pairs):
            bad += 1
        elif BACKEND != "python" and pure_python_kernel(*case, BUDGET) != (pairs, spent):
            bad += 1
    return {
        "backend": BACKEND,
        "cases": len(cases),
        "bad": bad,
        "kernels.suite_ms": elapsed * 1e3,
        "kernels.suite_expansions": expansions,
    }
