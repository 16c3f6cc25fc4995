import os
import random

import pytest

from templater.graph_core import UnifiedGraph, build_unified_graph
from templater.lammps_io import SystemTopology

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
    return SystemTopology.from_rows(
        [(a, 1, t, q, float(a), 0.0, 0.0) for a, t, q in atoms],
        masses,
        bonds=[(1, *b) for b in bonds],
        angles=[(1, *a) for a in angles],
        dihedrals=[(1, *d) for d in dihedrals],
        impropers=[(1, *i) for i in impropers],
    )


def make_graph(atoms, bonds, masses, side="reactant") -> UnifiedGraph:
    return build_unified_graph([make_topology(atoms, bonds, masses)], side)


def path_topology(n, type_id=1, mass=12.011):
    atoms = [(i, type_id, 0.0) for i in range(1, n + 1)]
    bonds = [(i, i + 1) for i in range(1, n)]
    return make_topology(atoms, bonds, {type_id: mass})


def sheet(rows, columns, rng):
    """A rows x columns sheet of fused four-rings, each atom bonded to its
    right and lower neighbours, with its atom ids shuffled by rng: a ladder
    when ``rows`` is 2 or 3, a grid when both sides are long."""
    ids = list(range(1, rows * columns + 1))
    rng.shuffle(ids)
    bonds = [(ids[k], ids[k + 1]) for k in range(len(ids)) if (k + 1) % columns]
    bonds += [(ids[k], ids[k + columns]) for k in range(len(ids) - columns)]
    return make_graph([(i, 1, 0.0) for i in ids], bonds, {1: 12.011})


def alkene_dimerization(n, rng, retype_radius=None):
    """Two explicit-hydrogen 1-alkenes CnH2n joined head to head into the
    alkane C2nH(4n+2), with the atom ids of each molecule shuffled by rng.

    With ``retype_radius`` R, every alkane atom within R bonds of the new
    bond (the bond itself counting as one) takes a retyped copy of its type
    with the same mass, as a force field assigns near a reaction site.  The
    radius changes types only, so rng yields the same atom orders either way.
    """
    c2, c3, ha, hc, c3x, hcx = 1, 2, 3, 4, 5, 6
    masses = {c2: 12.011, c3: 12.011, ha: 1.008, hc: 1.008, c3x: 12.011, hcx: 1.008}

    def molecule(carbon_types, hydrogens):
        types = list(carbon_types)
        bonds = [(i, i + 1) for i in range(len(types) - 1)]
        for carbon, (count, h_type) in enumerate(hydrogens):
            for _ in range(count):
                types.append(h_type)
                bonds.append((carbon, len(types) - 1))
        ids = list(range(1, len(types) + 1))
        rng.shuffle(ids)
        atoms = sorted((ids[i], t, 0.0) for i, t in enumerate(types))
        return make_topology(atoms, [(ids[a], ids[b]) for a, b in bonds], masses)

    def alkene():
        hydrogens = [(2, ha), (1, ha)] + [(2, hc)] * (n - 3) + [(3, hc)]
        return molecule([c2, c2] + [c3] * (n - 2), hydrogens)

    carbons = [c3] * (2 * n)
    hydrogens = [(3, hc)] + [(2, hc)] * (2 * n - 2) + [(3, hc)]
    if retype_radius is not None:
        # Alkane carbons n-1 and n form the new bond.
        hops = [max(n - 1 - c, c - n) for c in range(2 * n)]
        carbons = [c3x if h < retype_radius else c3 for h in hops]
        hydrogens = [
            (count, hcx if h + 1 < retype_radius else hc)
            for (count, _), h in zip(hydrogens, hops)
        ]
    alkane = molecule(carbons, hydrogens)
    return (
        build_unified_graph([alkene(), alkene()], "reactant"),
        build_unified_graph([alkane], "product"),
    )


def ua_dimerization(n, rng):
    """The united-atom form of ``alkene_dimerization``: each carbon carries
    its hydrogens in its mass, so the only leaves are the chain ends (one
    CH2= or CH3 each), with the atom ids of each molecule shuffled by rng."""
    end, mid, ch2, ch3 = 1, 2, 3, 4
    masses = {end: 14.027, mid: 13.019, ch2: 14.027, ch3: 15.035}

    def chain(types):
        ids = list(range(1, len(types) + 1))
        rng.shuffle(ids)
        atoms = sorted((ids[i], t, 0.0) for i, t in enumerate(types))
        bonds = [(ids[i], ids[i + 1]) for i in range(len(types) - 1)]
        return make_topology(atoms, bonds, masses)

    def alkene():
        return chain([end, mid] + [ch2] * (n - 3) + [ch3])

    return (
        build_unified_graph([alkene(), alkene()], "reactant"),
        build_unified_graph([chain([ch3] + [ch2] * (2 * n - 2) + [ch3])], "product"),
    )


def ring_opening(tail, rng, retype_radius=None):
    """A diepoxide and a primary amine joined by opening one epoxide ring,
    with the atom ids of each molecule shuffled by rng.

    The diepoxide is a C(CH3)2 core carrying two arms CH2-CH-CH2, each with
    a ring O bonded to the CH and the end CH2, as in a glycidyl group: an
    odd (three-membered) ring.  The amine is CH3(CH2)(tail-1)NH2.  In the
    one product molecule the N bonds arm 0's ring CH2, that CH2 leaves the
    ring O, and one N-H hydrogen moves to the O: two bonds broken, two
    formed.  The opened ring's carbons take the sp3 type, its O the hydroxyl
    type and the moved H the hydroxyl H type.  With ``retype_radius`` R
    every product c3 or hc atom fewer than R bonds from the N or that CH2
    takes a same-mass retyped copy of its type.  The radius changes types
    only, so rng yields the same atom orders either way.
    """
    c3, cx, hc, oe, n3, hn, oh, ho, c3x, hcx = range(1, 11)
    masses = {c3: 12.011, cx: 12.011, hc: 1.008, oe: 15.999, n3: 14.007,
              hn: 1.008, oh: 15.999, ho: 1.008, c3x: 12.011, hcx: 1.008}
    types: list[int] = []
    bonds: list[tuple[int, int]] = []

    def atom(type_id, *bonded):
        types.append(type_id)
        bonds.extend((b, len(types) - 1) for b in bonded)
        return len(types) - 1

    def carbon(type_id, hydrogens, *bonded):
        c = atom(type_id, *bonded)
        for _ in range(hydrogens):
            atom(hc, c)
        return c

    core = carbon(c3, 0)
    for _ in range(2):
        carbon(c3, 3, core)
    arms = []
    for _ in range(2):
        ch2 = carbon(c3, 2, core)
        ch = carbon(cx, 1, ch2)
        end = carbon(cx, 2, ch)
        arms.append((ch, end, atom(oe, ch, end)))
    epoxide_atoms = len(types)
    previous = carbon(c3, 3)
    for _ in range(tail - 1):
        previous = carbon(c3, 2, previous)
    n = atom(n3, previous)
    moved = atom(hn, n)
    atom(hn, n)

    def molecule(indices):
        ids = list(range(1, len(indices) + 1))
        rng.shuffle(ids)
        ids = dict(zip(indices, ids))
        atoms = sorted((ids[i], types[i], 0.0) for i in indices)
        return make_topology(atoms, [(ids[a], ids[b]) for a, b in bonds if a in ids], masses)

    reactants = [molecule(range(epoxide_atoms)), molecule(range(epoxide_atoms, len(types)))]
    ch, end, oxygen = arms[0]
    bonds.remove((end, oxygen))
    bonds.remove((n, moved))
    bonds.extend([(n, end), (oxygen, moved)])
    types[ch] = types[end] = c3
    types[oxygen], types[moved] = oh, ho
    if retype_radius is not None:
        neighbours = {i: [] for i in range(len(types))}
        for a, b in bonds:
            neighbours[a].append(b)
            neighbours[b].append(a)
        hops = {n: 0, end: 0}
        queue = [n, end]
        for i in queue:
            for j in neighbours[i]:
                if j not in hops:
                    hops[j] = hops[i] + 1
                    queue.append(j)
        retyped = {c3: c3x, hc: hcx}
        types = [retyped.get(t, t) if hops[i] < retype_radius else t for i, t in enumerate(types)]
    return (
        build_unified_graph(reactants, "reactant"),
        build_unified_graph([molecule(range(len(types)))], "product"),
    )


def bond_edits(mapping, g_reac, g_prod) -> tuple[int, int]:
    """(broken, formed) bond counts of an atom map.

    A reactant bond is broken unless both its atoms are mapped and their
    images are bonded; a product bond is formed unless both its atoms have
    preimages and those are bonded.  Bonds to deleted or created atoms
    count.  The fewest edits is the minimum chemical distance of the map.
    """
    broken = sum(
        1
        for a, b in g_reac.edges
        if not (
            a in mapping.pairs
            and b in mapping.pairs
            and g_prod.has_edge(mapping.pairs[a], mapping.pairs[b])
        )
    )
    formed = sum(
        1
        for a, b in g_prod.edges
        if not (
            a in mapping.reverse
            and b in mapping.reverse
            and g_reac.has_edge(mapping.reverse[a], mapping.reverse[b])
        )
    )
    return broken, formed


def alkene_c1(g_reac) -> set[int]:
    """Reactant gids of the C1 carbon of each alkene of
    ``alkene_dimerization`` or ``ua_dimerization``: the type-1 atom (``c2``
    or the united-atom ``CH2=``) bonded to one heavy atom.  They form the
    new bond, so they are the true initiators."""
    return {
        gid
        for gid, node in g_reac.nodes.items()
        if node.type_id == 1
        and sum(g_reac.nodes[x].mass > 2.0 for x in g_reac.neighbors(gid)) == 1
    }


def kernel_form_graphs(labels_r, adj_r, labels_p, adj_p):
    """Unified graphs of a kernel-form pair: node i becomes global id i + 1,
    and label l type l + 1 with its own mass."""

    def graph(labels, adj, side):
        atoms = [(i + 1, label + 1, 0.0) for i, label in enumerate(labels)]
        bonds = [
            (i + 1, j + 1) for i in range(len(labels)) for j in range(i + 1, len(labels))
            if (adj[i] >> j) & 1
        ]
        masses = {label + 1: 1.0 + label for label in set(labels_r) | set(labels_p)}
        return make_graph(atoms, bonds, masses, side)

    return graph(labels_r, adj_r, "reactant"), graph(labels_p, adj_p, "product")


def all_atom_kernel_input(g_r, g_p, include_r, include_p, required=None):
    """The kernel's input for the whole restricted problem, every atom a
    node: (labels_r, labels_p, adj_r, adj_p, allowed) over the sorted
    included gids, each label the atom's (mass, type) pair."""
    nodes_r, nodes_p = sorted(include_r), sorted(include_p)

    def labels(graph, nodes):
        return [(graph.nodes[g].mass, graph.nodes[g].type_id) for g in nodes]

    def neighbours(graph, gid, index):
        return sum(1 << index[x] for x in graph.neighbors(gid) if x in index)

    index_r = {g: i for i, g in enumerate(nodes_r)}
    index_p = {g: j for j, g in enumerate(nodes_p)}
    labels_r, labels_p = labels(g_r, nodes_r), labels(g_p, nodes_p)
    adj_r = [neighbours(g_r, g, index_r) for g in nodes_r]
    adj_p = [neighbours(g_p, g, index_p) for g in nodes_p]
    allowed = None
    if required:
        allowed = []
        for g in nodes_r:
            row = (1 << len(nodes_p)) - 1
            for image in required.get(g, ()):
                row &= neighbours(g_p, image, index_p)
            allowed.append(row)
    return labels_r, labels_p, adj_r, adj_p, allowed


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


def weighted_oracle_pairs(labels_r, adj_r, labels_p, adj_p, weight):
    """Exhaustive best connected common induced mapping under pair weights.

    ``weight(v, w)`` weighs each pair; the result is the smallest sorted
    pair list among the mappings of largest total weight, with that
    weight; ``([], 0)`` when no pair is compatible.
    """
    best: list[tuple[int, int]] = []
    best_weight = 0
    for subset in connected_subsets(len(labels_r), adj_r):
        for images in _embeddings(subset, labels_r, adj_r, labels_p, adj_p):
            pairs = list(zip(subset, images))
            total = sum(weight(v, w) for v, w in pairs)
            if total > best_weight or (total == best_weight and pairs < best):
                best, best_weight = pairs, total
    return best, best_weight


@pytest.fixture(scope="session")
def case_states():
    """Pipeline states of the three reaction case studies, computed once."""
    from templater.cli import RunConfig, run_stages

    states = {}
    for name, (reactants, products) in CASE_STUDIES.items():
        cfg = RunConfig(reactants=reactants, products=products, out_dir=".")
        states[name] = run_stages(cfg)
    return states
