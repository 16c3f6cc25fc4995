import os
import random

import pytest

from templater.graph_core import UnifiedGraph, build_unified_graph
from templater.lammps_io import AtomRecord, SystemTopology

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


CASE_STUDIES = {
    "polyaddition": (
        [fixture_path("mdi.data"), fixture_path("bd.data")],
        [fixture_path("polyaddition_product.data")],
    ),
    "polycondensation": (
        [fixture_path("ht.data"), fixture_path("mpd.data")],
        [fixture_path("polycondensation_product.data")],
    ),
    "chain": (
        [fixture_path("butene.data"), fixture_path("butene.data")],
        [fixture_path("octane.data")],
    ),
}


def make_topology(atoms, bonds, masses, angles=(), dihedrals=(), impropers=()):
    """Small-topology builder: atoms are (id, type, charge) triples."""
    records = [
        AtomRecord(atom_id=a, mol_id=1, type_id=t, charge=q, x=float(a), y=0.0, z=0.0)
        for a, t, q in atoms
    ]
    return SystemTopology(
        atoms=records,
        masses=dict(masses),
        bonds=[(1, tuple(b)) for b in bonds],
        angles=[(1, tuple(a)) for a in angles],
        dihedrals=[(1, tuple(d)) for d in dihedrals],
        impropers=[(1, tuple(i)) for i in impropers],
    )


def make_graph(atoms, bonds, masses, side="reactant") -> UnifiedGraph:
    return build_unified_graph([make_topology(atoms, bonds, masses)], side)


def path_topology(n, type_id=1, mass=12.011):
    atoms = [(i, type_id, 0.0) for i in range(1, n + 1)]
    bonds = [(i, i + 1) for i in range(1, n)]
    return make_topology(atoms, bonds, {type_id: mass})


def random_attributed_pair(rng: random.Random, max_nodes=10, labels=3, p_edge=0.35):
    """Random labelled graph pair in kernel form (labels plus bitmasks)."""

    def one_side():
        n = rng.randint(1, max_nodes)
        node_labels = [rng.randrange(labels) for _ in range(n)]
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_edge:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return node_labels, masks

    labels_r, adj_r = one_side()
    labels_p, adj_p = one_side()
    return labels_r, adj_r, labels_p, adj_p


def connected_subsets(n: int, masks: list[int]):
    """All nonempty connected node subsets, largest first."""
    from itertools import combinations

    subsets = []
    nodes = list(range(n))
    for size in range(n, 0, -1):
        for combo in combinations(nodes, size):
            members = set(combo)
            frontier = [combo[0]]
            seen = {combo[0]}
            while frontier:
                node = frontier.pop()
                for other in members:
                    if other not in seen and (masks[node] >> other) & 1:
                        seen.add(other)
                        frontier.append(other)
            if len(seen) == size:
                subsets.append(combo)
    return subsets


def hydrogen_decorated_pair(rng: random.Random, max_heavy=3, max_leaves=3, labels=2, p_edge=0.5):
    """Random molecule pair in kernel form with hydrogen-like leaves.

    Each side has 1..max_heavy heavy atoms (labels 0..labels-1) carrying
    0..max_leaves leaf atoms of label ``labels`` each, in shuffled node
    order, so groups of symmetric leaves (twins) occur.
    """

    def one_side():
        heavy = rng.randint(1, max_heavy)
        node_labels = [rng.randrange(labels) for _ in range(heavy)]
        edges = [
            (i, j) for i in range(heavy) for j in range(i + 1, heavy) if rng.random() < p_edge
        ]
        for atom in range(heavy):
            for _ in range(rng.randint(0, max_leaves)):
                node_labels.append(labels)
                edges.append((atom, len(node_labels) - 1))
        order = list(range(len(node_labels)))
        rng.shuffle(order)
        shuffled = [0] * len(order)
        for old, new in enumerate(order):
            shuffled[new] = node_labels[old]
        masks = [0] * len(order)
        for a, b in edges:
            masks[order[a]] |= 1 << order[b]
            masks[order[b]] |= 1 << order[a]
        return shuffled, masks

    labels_r, adj_r = one_side()
    labels_p, adj_p = one_side()
    return labels_r, adj_r, labels_p, adj_p


def random_allowed(rng: random.Random, n_r: int, n_p: int) -> list[int]:
    """Random ``allowed`` rows drawn from a pool of three, one of them full,
    so that equal rows and equal columns (kept twins) occur."""
    pool = [(1 << n_p) - 1, rng.getrandbits(n_p), rng.getrandbits(n_p)]
    return [rng.choice(pool) for _ in range(n_r)]


def _embeddings(subset, labels_r, adj_r, labels_p, adj_p, allowed=None):
    """Every label-, adjacency- and allowed-exact image list of ``subset``,
    found by plain backtracking."""
    used = [False] * len(labels_p)
    assignment: list[int] = []

    def place(k: int):
        if k == len(subset):
            yield list(assignment)
            return
        v = subset[k]
        for w in range(len(labels_p)):
            if used[w] or labels_p[w] != labels_r[v]:
                continue
            if allowed is not None and not (allowed[v] >> w) & 1:
                continue
            if any(
                bool((adj_r[v] >> u) & 1) != bool((adj_p[w] >> x) & 1)
                for u, x in zip(subset, assignment)
            ):
                continue
            used[w] = True
            assignment.append(w)
            yield from place(k + 1)
            assignment.pop()
            used[w] = False

    return place(0)


def mcs_oracle_size(labels_r, adj_r, labels_p, adj_p) -> int:
    """Exhaustive maximum common connected induced subgraph size.

    Enumerates the connected node subsets of the first graph from largest
    to smallest and searches for a label- and adjacency-exact embedding
    into the second graph by plain backtracking.  Independent of the
    production kernel by construction.
    """
    for subset in connected_subsets(len(labels_r), adj_r):
        if next(_embeddings(subset, labels_r, adj_r, labels_p, adj_p), None) is not None:
            return len(subset)
    return 0


def mcs_oracle_pairs(labels_r, adj_r, labels_p, adj_p, allowed=None) -> list[tuple[int, int]]:
    """Exhaustive lexicographically smallest maximum pair list.

    Enumerates every embedding of every connected subset of the first graph
    at the largest size that embeds, honouring ``allowed`` (bitmask of the
    product nodes each reactant node may pair with), and returns the
    smallest sorted (reactant, product) pair list; empty when no pair is
    compatible.  Independent of the production kernel by construction.
    """
    best: list[tuple[int, int]] | None = None
    for subset in connected_subsets(len(labels_r), adj_r):
        if best is not None and len(subset) < len(best):
            break
        for images in _embeddings(subset, labels_r, adj_r, labels_p, adj_p, allowed):
            pairs = list(zip(subset, images))
            if best is None or pairs < best:
                best = pairs
    return best or []


@pytest.fixture(scope="session")
def case_states():
    """Pipeline states of the three reaction case studies, computed once."""
    from templater.cli import RunConfig, run_stages

    states = {}
    for name, (reactants, products) in CASE_STUDIES.items():
        cfg = RunConfig(reactants=reactants, products=products, out_dir=".")
        states[name] = run_stages(cfg)
    return states
