import logging
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import CASE_STUDIES, make_graph, make_topology, path_topology, sheet, ua_dimerization
from test_lammps_io import load_workloads
from templater.cli import RunConfig, run_stages
from templater.errors import EmptyTopology
from templater.graph_core import (
    AtomNode,
    build_unified_graph,
    dot_export,
    eigenvector_centrality,
)
from templater.lammps_io import parse_data_file
from templater.reaction_analysis import CENTRALITY_DELTA_DECIMALS

H_MASS = {1: 1.008}
C_MASS = {1: 12.011}


def shuffled_chain(n, rng):
    """An n-site chain whose atom ids run along it in random order."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    bonds = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    atoms = [(i, 1, 0.0) for i in range(1, n + 1)]
    return build_unified_graph([make_topology(atoms, bonds, C_MASS)], "product")


def bonded_pieces(graph, component):
    """The connected pieces of a molecule with at least one bond, found from
    ``graph.edges`` alone, each as a sorted list of atoms."""
    piece_of = {gid: {gid} for gid in graph.components[component]}
    for a, b in graph.edges:
        if a in piece_of and piece_of[a] is not piece_of[b]:
            merged = piece_of[a] | piece_of[b]
            for gid in merged:
                piece_of[gid] = merged
    pieces = {id(piece): piece for piece in piece_of.values() if len(piece) > 1}
    return [sorted(piece) for piece in pieces.values()]


def assert_matches_dense_oracle(graph, component):
    """The centrality of a molecule against, piece by piece, the principal
    eigenvector of A + I from the dense symmetric eigensolver: equal to
    1e-12, and equal after the rounding that ``centrality_delta`` applies.
    Atoms without bonds must get exactly 0."""
    centrality = eigenvector_centrality(graph, component)
    assert set(centrality) == set(graph.components[component])
    pieces = bonded_pieces(graph, component)
    bonded = {gid for piece in pieces for gid in piece}
    assert all(centrality[gid] == 0.0 for gid in set(centrality) - bonded)
    for piece in pieces:
        index = {gid: i for i, gid in enumerate(piece)}
        shifted = np.eye(len(piece))
        for a, b in graph.edges:
            if a in index:
                shifted[index[a], index[b]] = shifted[index[b], index[a]] = 1.0
        principal = np.abs(np.linalg.eigh(shifted)[1][:, -1])
        vec = np.array([centrality[gid] for gid in piece])
        assert np.max(np.abs(vec - principal)) <= 1e-12
        assert [round(c, CENTRALITY_DELTA_DECIMALS) for c in vec] == [
            round(c, CENTRALITY_DELTA_DECIMALS) for c in principal
        ]


def is_tree(graph, piece):
    """Whether a connected piece has one bond fewer than atoms."""
    return sum(len(graph.neighbors(gid)) for gid in piece) == 2 * (len(piece) - 1)


def assert_fixed_point(graph, component):
    """A x = (x^T A x) x to 1e-8 on every bonded piece of a molecule."""
    centrality = eigenvector_centrality(graph, component)
    for piece in bonded_pieces(graph, component):
        index = {gid: i for i, gid in enumerate(piece)}
        adj = np.zeros((len(piece), len(piece)))
        for a, b in graph.edges:
            if a in index:
                adj[index[a], index[b]] = adj[index[b], index[a]] = 1.0
        x = np.array([centrality[gid] for gid in piece])
        assert np.max(np.abs((x @ adj @ x) * x - adj @ x)) <= 1e-8


def assert_matches_closed_form(graph):
    """The centrality of a molecule that is one chain against the closed form
    sin(j pi / (N + 1)), normalised, along the chain from its smaller end:
    equal to 1e-12 and after the rounding of ``centrality_delta``.  Dense
    ``eigh`` misses by more than 1e-12 from about 1,500 sites, so long
    chains are checked here rather than by ``assert_matches_dense_oracle``."""
    n = len(graph.nodes)
    order = [min(g for g in graph.nodes if len(graph.neighbors(g)) == 1)]
    while len(order) < n:
        order.append(next(g for g in graph.neighbors(order[-1]) if g not in order[-2:]))
    closed = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
    closed /= np.linalg.norm(closed)
    centrality = eigenvector_centrality(graph, 1)
    vec = np.array([centrality[g] for g in order])
    assert np.max(np.abs(vec - closed)) <= 1e-12
    assert [round(c, CENTRALITY_DELTA_DECIMALS) for c in vec] == [
        round(c, CENTRALITY_DELTA_DECIMALS) for c in closed
    ]


def ring(first, size):
    """Bonds closing the atoms first .. first + size - 1 into a ring."""
    return [(first + k, first + (k + 1) % size) for k in range(size)]


# Molecules with odd rings: an epoxide-like three-ring, a five-ring with a
# substituent, and the fused five-six bicycle of indane.
EPOXIDE = (6, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5), (2, 6)])
CYCLOPENTYL = (6, ring(1, 5) + [(1, 6)])
INDANE = (9, ring(1, 6) + [(6, 7), (7, 8), (8, 9), (9, 1)])
# One molecule in four pieces: a six-ring, a five-ring, a two-atom piece and
# the lone atom 14.
MIXED = (14, ring(1, 6) + ring(7, 5) + [(12, 13)])


def graph_of(molecule):
    atoms, bonds = molecule
    return make_graph([(i, 1, 0.0) for i in range(1, atoms + 1)], bonds, C_MASS)


def h2_topology():
    return make_topology([(1, 1, 0.0), (2, 1, 0.0)], [(1, 2)], H_MASS)


class TestBuildUnifiedGraph:
    def test_two_h2_offsets(self):
        graph = build_unified_graph([h2_topology(), h2_topology()], "reactant")
        assert len(graph.nodes) == 4
        assert [graph.nodes[g].component for g in sorted(graph.nodes)] == [1, 1, 2, 2]
        assert graph.edges == frozenset({(1, 2), (3, 4)})

    def test_polyaddition_unified_node_count(self):
        with open("tests/fixtures/mdi.data") as handle:
            mdi = parse_data_file(handle.read())
        with open("tests/fixtures/bd.data") as handle:
            bd = parse_data_file(handle.read())
        graph = build_unified_graph([mdi, bd], "reactant")
        assert len(graph.nodes) == 45

    def test_single_molecule_component_ids(self):
        graph = build_unified_graph([path_topology(3)], "reactant")
        assert {graph.nodes[g].component for g in graph.nodes} == {1}

    def test_empty_topology_rejected(self):
        empty = make_topology([], [], {})
        with pytest.raises(EmptyTopology):
            build_unified_graph([empty], "reactant")

    def test_node_and_edge_counts_preserved(self):
        rng = random.Random(11)
        topologies = []
        for _ in range(3):
            n = rng.randint(2, 8)
            bonds = [(i, i + 1) for i in range(1, n)]
            topologies.append(
                make_topology([(i, 1, 0.0) for i in range(1, n + 1)], bonds, C_MASS)
            )
        graph = build_unified_graph(topologies, "reactant")
        assert len(graph.nodes) == sum(len(t.atoms) for t in topologies)
        assert len(graph.edges) == sum(len(t.bonds) for t in topologies)

    def test_keeps_topologies_in_component_order(self):
        topologies = [path_topology(3), h2_topology(), path_topology(5)]
        graph = build_unified_graph(topologies, "reactant")
        assert len(graph.topologies) == 3
        assert all(kept is given for kept, given in zip(graph.topologies, topologies))
        assert [len(graph.components[c]) for c in (1, 2, 3)] == [3, 2, 5]

    def test_gap_ids_renumbered_by_rank(self):
        topology = make_topology([(2, 1, 0.0), (9, 1, 0.0)], [(2, 9)], C_MASS)
        graph = build_unified_graph([topology], "reactant")
        assert sorted(graph.nodes) == [1, 2]
        assert [graph.nodes[g].source_id for g in sorted(graph.nodes)] == [2, 9]

    def test_structure_of_two_files(self):
        # The second file lists its atoms out of order and with id gaps, gives
        # one bond twice (once reversed) and bonds atom 5 to itself.
        masses = {1: 1.008, 2: 12.011}
        second = make_topology(
            [(7, 2, -0.2), (3, 1, 0.1), (10, 2, 0.0), (5, 1, 0.1)],
            [(7, 10), (7, 3), (3, 7), (5, 5), (10, 5)],
            masses,
        )
        graph = build_unified_graph([h2_topology(), second], "product")
        assert graph.nodes == {
            1: AtomNode(1, 1, 1.008, 1, 0.0, 1),
            2: AtomNode(2, 2, 1.008, 1, 0.0, 1),
            3: AtomNode(3, 3, 1.008, 1, 0.1, 2),
            4: AtomNode(4, 5, 1.008, 1, 0.1, 2),
            5: AtomNode(5, 7, 12.011, 2, -0.2, 2),
            6: AtomNode(6, 10, 12.011, 2, 0.0, 2),
        }
        assert graph.edges == frozenset({(1, 2), (3, 5), (4, 6), (5, 6)})
        assert [graph.neighbors(g) for g in range(1, 7)] == [
            (2,), (1,), (5,), (6,), (3, 6), (4, 5),
        ]
        assert graph.components == {1: (1, 2), 2: (3, 4, 5, 6)}
        sources = [(1, 1), (1, 2), (2, 3), (2, 5), (2, 7), (2, 10)]
        assert [graph.gid_for(c, s) for c, s in sources] == [1, 2, 3, 4, 5, 6]
        assert graph.sorted_gids() == [1, 2, 3, 4, 5, 6]

    def test_edges_and_has_edge_follow_bonds_rows(self):
        # Random files with id gaps, repeated and reversed rows and self
        # bonds: ``edges`` holds each bond of the Bonds rows once, and
        # ``has_edge`` agrees with it on every ordered pair, self pairs and
        # absent atoms included.
        rng = random.Random(23)
        for _ in range(60):
            topologies, rows = [], []
            for _ in range(rng.randint(1, 3)):
                ids = rng.sample(range(1, 40), rng.randint(1, 9))
                bonds = [
                    (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * len(ids)))
                ]
                topologies.append(make_topology([(i, 1, 0.0) for i in ids], bonds, C_MASS))
                rows.append(bonds)
            graph = build_unified_graph(topologies, "reactant")
            bonded = set()
            for component, bonds in enumerate(rows, start=1):
                for a, b in bonds:
                    if a != b:
                        a, b = graph.gid_for(component, a), graph.gid_for(component, b)
                        bonded.add((min(a, b), max(a, b)))
            assert graph.edges == frozenset(bonded)
            absent = len(graph.nodes) + 1
            for a in [*graph.nodes, absent]:
                for b in [*graph.nodes, absent]:
                    assert graph.has_edge(a, b) == ((min(a, b), max(a, b)) in bonded), (a, b)


class TestEigenvectorCentrality:
    def test_path_three_center_dominates(self):
        graph = build_unified_graph([path_topology(3)], "reactant")
        centrality = eigenvector_centrality(graph, 1)
        assert centrality[2] > centrality[1]
        assert centrality[1] == pytest.approx(centrality[3], abs=1e-9)
        assert centrality[2] == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_four_cycle_uniform(self):
        atoms = [(i, 1, 0.0) for i in range(1, 5)]
        bonds = [(1, 2), (2, 3), (3, 4), (4, 1)]
        graph = make_graph(atoms, bonds, C_MASS)
        centrality = eigenvector_centrality(graph, 1)
        for value in centrality.values():
            assert value == pytest.approx(0.5, abs=1e-6)

    def test_star_closed_form(self):
        atoms = [(i, 1, 0.0) for i in range(1, 5)]
        bonds = [(1, 2), (1, 3), (1, 4)]
        graph = make_graph(atoms, bonds, C_MASS)
        centrality = eigenvector_centrality(graph, 1)
        assert centrality[1] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        for leaf in (2, 3, 4):
            assert centrality[leaf] == pytest.approx(1 / math.sqrt(6), abs=1e-6)

    def test_no_edges_all_zero(self):
        graph = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [], C_MASS)
        assert eigenvector_centrality(graph, 1) == {1: 0.0, 2: 0.0}

    def test_disconnected_molecule_pieces(self):
        # One molecule in four pieces, with interleaved ids: the path 1-4-7,
        # the star centred on 2 with leaves 5, 6, 8, atom 3 alone, and the
        # odd ring 9-11-13-10-12 with atom 14 on 9.
        path = [(1, 4), (4, 7)]
        star = [(2, 5), (2, 6), (2, 8)]
        odd_ring = [(9, 11), (11, 13), (13, 10), (10, 12), (12, 9), (9, 14)]
        graph = make_graph([(i, 1, 0.0) for i in range(1, 15)], path + star + odd_ring, C_MASS)
        assert_matches_dense_oracle(graph, 1)

    @pytest.mark.parametrize(
        "molecule", [EPOXIDE, CYCLOPENTYL, INDANE, MIXED],
        ids=["three-ring", "five-ring", "fused-five-six", "mixed-pieces"],
    )
    def test_dense_oracle_odd_and_mixed_rings(self, molecule):
        assert_matches_dense_oracle(graph_of(molecule), 1)

    def test_no_numpy_linalg_call(self, monkeypatch):
        # Every piece is solved by elimination in plain Python.  Each public
        # numpy.linalg function and each LAPACK ufunc behind them records
        # its calls, so a call through a name imported early is seen too.
        calls = []

        def recording(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                recording(np.linalg, name)
        for name in dir(np.linalg._umath_linalg):
            if not name.startswith("_"):
                recording(np.linalg._umath_linalg, name)
        np.linalg.eigh(np.eye(2))
        assert calls == ["eigh", "eigh_lo"]
        calls.clear()
        for molecule in (EPOXIDE, INDANE, MIXED, (192, ring(1, 192))):
            eigenvector_centrality(graph_of(molecule), 1)
        eigenvector_centrality(build_unified_graph([path_topology(192)], "product"), 1)
        for reactants, products in CASE_STUDIES.values():
            run_stages(RunConfig(reactants=reactants, products=products))
        assert calls == []

    def test_fixed_point_residual_random_graphs(self):
        rng = random.Random(99)
        graphs = []
        for _ in range(100):
            n = rng.randint(2, 12)
            bonds = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
            extra = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if rng.random() < 0.15
            ]
            graphs.append(
                make_graph([(i, 1, 0.0) for i in range(1, n + 1)], bonds + extra, C_MASS)
            )
        # a long chain, as in the united-atom chain benchmark product: its
        # small spectral gap is where an iterative solver falls short
        graphs.append(build_unified_graph([path_topology(192)], "product"))
        for graph in graphs:
            n = len(graph.nodes)
            centrality = eigenvector_centrality(graph, 1)
            vec = np.array([centrality[g] for g in sorted(graph.nodes)])
            adj = np.zeros((n, n))
            for a, b in graph.edges:
                adj[a - 1, b - 1] = adj[b - 1, a - 1] = 1.0
            lam = vec @ adj @ vec
            residual = np.max(np.abs(lam * vec - adj @ vec))
            assert residual <= 1e-8
            # dense-eigensolver oracle
            eigenvalues, eigenvectors = np.linalg.eigh(adj)
            principal = np.abs(eigenvectors[:, -1])
            assert np.max(np.abs(vec - principal)) <= 1e-6
            assert_matches_dense_oracle(graph, 1)

    def test_dense_oracle_case_study_molecules(self, case_states):
        for state in case_states.values():
            for graph in (state.g_reac, state.g_prod):
                for component in graph.components:
                    assert_matches_dense_oracle(graph, component)

    def test_dense_oracle_long_shuffled_chain(self):
        # Against the closed form sin(j pi / 769), normalised, whose values
        # all lie at least 1.9e-12 from a rounding boundary at 9 decimals,
        # the tree solve lands within 1.9e-14 and dense eigh of A + I
        # within 3.9e-13 (max over the chain; numpy 2.4 with OpenBLAS 0.3.31
        # on x86-64).
        assert_matches_dense_oracle(shuffled_chain(768, random.Random(7)), 1)

    def test_random_trees_dense_oracle(self):
        # Trees take the tree solve: stars, caterpillars (a spine with up to
        # three legs per atom), random trees, the two-atom K2, and forests of
        # them with atoms left without bonds, all with shuffled ids.
        rng = random.Random(36)

        def tree(kind, size):
            if kind == "star":
                return [(0, k) for k in range(1, size)]
            if kind == "caterpillar":
                bonds = [(k, k + 1) for k in range(size - 1)]
                for k in range(size):
                    for _ in range(rng.randint(0, 3)):
                        bonds.append((k, len(bonds) + 1))
                return bonds
            return [(rng.randrange(k), k) for k in range(1, size)]

        for kind in ("star", "caterpillar", "random", "K2", "forest"):
            for _ in range(40):
                if kind == "forest":
                    bonds, n = [], 0
                    for _ in range(rng.randint(1, 4)):
                        size = rng.randint(1, 20)
                        bonds += [(a + n, b + n) for a, b in tree("random", size)]
                        n += size
                else:
                    bonds = tree(kind, 2 if kind == "K2" else rng.randint(2, 40))
                    n = 1 + max(max(bond) for bond in bonds)
                ids = list(range(1, n + 1))
                rng.shuffle(ids)
                graph = make_graph(
                    [(i, 1, 0.0) for i in ids], [(ids[a], ids[b]) for a, b in bonds], C_MASS
                )
                assert all(is_tree(graph, piece) for piece in bonded_pieces(graph, 1))
                assert_matches_dense_oracle(graph, 1)
                assert_fixed_point(graph, 1)

    @pytest.mark.parametrize(
        "rows, columns",
        [(2, 2), (2, 9), (2, 150), (3, 4), (3, 100), (4, 4), (5, 8), (7, 7), (10, 10)],
    )
    def test_ladders_and_grids_dense_oracle(self, rows, columns):
        # Fused four-rings, shuffled ids: ladders of 2 and 3 rows fill about
        # 0.5 and 1.3 entries per atom, a w x w grid about w / 2.
        for seed in range(3):
            graph = sheet(rows, columns, random.Random(100 * rows + columns + seed))
            assert_matches_dense_oracle(graph, 1)
            assert_fixed_point(graph, 1)

    @pytest.mark.parametrize("n", [2, 3, 50, 500, 2000])
    def test_paths_closed_form(self, n):
        graph = shuffled_chain(n, random.Random(n))
        assert_matches_closed_form(graph)
        assert_fixed_point(graph, 1)
        if n <= 500:
            assert_matches_dense_oracle(graph, 1)

    def test_each_solved_piece_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="templater"):
            eigenvector_centrality(graph_of(MIXED), 1)
        lines = [m for m in caplog.messages if m.startswith("centrality:")]
        # A ring of n atoms fills n - 3 entries.  Each piece is regular, so
        # it starts from its eigenvector and makes no solve.
        assert lines == [
            "centrality: reactant molecule 1, 6 atoms from atom 1: 3 fill entries, "
            "0 Noda solves, Collatz-Wielandt bracket [2.0, 2.0]",
            "centrality: reactant molecule 1, 5 atoms from atom 7: 2 fill entries, "
            "0 Noda solves, Collatz-Wielandt bracket [2.0, 2.0]",
            "centrality: reactant molecule 1, 2 atoms from atom 12: 0 fill entries, "
            "0 Noda solves, Collatz-Wielandt bracket [1.0, 1.0]",
        ]
        # The fused bicycle and the chain iterate; their brackets close on
        # the top eigenvalue, from dense eigvalsh and the closed form.
        adjacency = np.zeros((9, 9))
        for a, b in graph_of(INDANE).edges:
            adjacency[a - 1, b - 1] = adjacency[b - 1, a - 1] = 1.0
        for graph, side, atoms, fill, top in (
            (graph_of(INDANE), "reactant", 9, 5, np.linalg.eigvalsh(adjacency)[-1]),
            (
                build_unified_graph([path_topology(96)], "product"),
                "product", 96, 0, 2 * math.cos(math.pi / 97),
            ),
        ):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="templater"):
                eigenvector_centrality(graph, 1)
            (line,) = caplog.messages
            match = re.fullmatch(
                rf"centrality: {side} molecule 1, {atoms} atoms from atom 1: {fill} fill "
                r"entries, (\d+) Noda solves, Collatz-Wielandt bracket \[(\S+), (\S+)\]",
                line,
            )
            solves, low, high = int(match[1]), float(match[2]), float(match[3])
            assert 1 <= solves <= 10
            assert low <= high and high - low <= 1e-14
            assert abs(low - top) <= 1e-14 and abs(high - top) <= 1e-14


def assert_solves_every_molecule(graph):
    """Every molecule of the graph against dense ``eigh`` and the fixed
    point, each as ``assert_matches_dense_oracle`` and
    ``assert_fixed_point`` check it."""
    for component in graph.components:
        assert_matches_dense_oracle(graph, component)
        assert_fixed_point(graph, component)


def random_connected_graph(rng, bipartite):
    """A random tree on 2 to 40 shuffled ids plus random extra bonds: only
    between opposite tree-depth parities when ``bipartite``, else with at
    least one bond closing an odd ring."""
    n = rng.randint(2, 40)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    parent = {k: rng.randrange(k) for k in range(1, n)}
    depth = [0] * n
    for k in range(1, n):
        depth[k] = depth[parent[k]] + 1
    bonds = {(parent[k], k) for k in range(1, n)}
    odd_closer = [(a, b) for a in range(n) for b in range(a + 1, n)
                  if (depth[a] ^ depth[b]) & 1 == 0 and (a, b) not in bonds]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.1 and (not bipartite or (depth[a] ^ depth[b]) & 1):
                bonds.add((a, b))
    if not bipartite and odd_closer:
        bonds.add(rng.choice(odd_closer))
    atoms = [(i, 1, 0.0) for i in range(1, n + 1)]
    return make_graph(atoms, [(ids[a], ids[b]) for a, b in sorted(bonds)], C_MASS)


class TestCentralitySolveBits:
    """Every molecule the pipeline meets, rings included, against dense
    ``eigh`` of A + I to 1e-12 and after the 9-decimal rounding, and
    against the fixed point.  Ring pieces land within 1.3e-14 of dense
    ``eigh`` on the case studies and the random graphs below, and tree
    pieces within 1.7e-14 on the seed-1 benchmark molecules, with no
    value rounding differently."""

    def test_case_study_molecules(self, case_states):
        for state in case_states.values():
            assert_solves_every_molecule(state.g_reac)
            assert_solves_every_molecule(state.g_prod)

    def test_benchmark_molecules(self, tmp_path):
        workloads = load_workloads()
        for kind in workloads.GENERATED:
            directory = tmp_path / kind
            directory.mkdir()
            for instance in workloads.generated(kind, 1, str(directory)):
                for side, paths in (("reactant", instance.reactants), ("product", instance.products)):
                    topologies = []
                    for path in paths:
                        with open(path, encoding="ascii") as handle:
                            topologies.append(parse_data_file(handle.read()))
                    assert_solves_every_molecule(build_unified_graph(topologies, side))

    @pytest.mark.parametrize("bipartite", [True, False], ids=["bipartite", "odd-ring"])
    def test_random_connected_graphs(self, bipartite):
        rng = random.Random(32 + bipartite)
        for _ in range(100):
            assert_solves_every_molecule(random_connected_graph(rng, bipartite))

    def test_united_atom_product_at_size(self):
        # The 1,536-site product is one chain.  Dense eigh lands 2.0e-12 from
        # its closed form, so the closed form is the oracle.
        _, product = ua_dimerization(768, random.Random(0))
        assert_matches_closed_form(product)

    def test_peak_memory_of_chain_solve(self):
        # The 192-site chain was once solved on a 97 x 97 bordered array.
        # Its tracemalloc peak above live memory was 4.1 of those arrays
        # while the biadjacency sat beside it and numpy buffered the strided
        # negation, then under 2.  As a tree it is solved in lists of
        # floats, at 0.65.
        graph = build_unified_graph([path_topology(192)], "product")
        eigenvector_centrality(graph, 1)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            eigenvector_centrality(graph, 1)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 97 * 97 * 8, peak / (97 * 97 * 8)

    def test_peak_memory_of_ring_solve(self):
        # A 192-atom ring, with the bound the chain had.  Its one ring bond
        # fills 189 entries down both sides of the ring.  The peak above
        # live memory was 1.65 of those arrays with the dense half-size
        # solve; it is 1.6 now, set while the factor's slots are numbered.
        graph = graph_of((192, ring(1, 192)))
        eigenvector_centrality(graph, 1)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            eigenvector_centrality(graph, 1)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 97 * 97 * 8, peak / (97 * 97 * 8)


def hop_distances(graph, sources):
    """Multi-source hop counts read off ``graph.shells``; math.inf where unreachable."""
    distances = {gid: math.inf for gid in graph.nodes}
    for source in sources:
        for depth, shell in enumerate(graph.shells(source)):
            for gid in shell:
                distances[gid] = min(distances[gid], depth)
    return distances


class TestDistances:
    def test_single_source_path(self):
        graph = build_unified_graph([path_topology(3)], "reactant")
        assert hop_distances(graph, {1}) == {1: 0, 2: 1, 3: 2}

    def test_two_sources_min(self):
        graph = build_unified_graph([path_topology(5)], "reactant")
        distances = hop_distances(graph, {1, 5})
        assert distances[3] == 2
        # One search from 1-4 roots gives the same minimum over single roots,
        # cut off at its limit; limit 0 gives the roots only.
        rng = random.Random(33)
        for _ in range(150):
            n = rng.randint(1, 14)
            bonds = [
                (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.2
            ]
            graph = make_graph([(i, 1, 0.0) for i in range(1, n + 1)], bonds, C_MASS)
            roots = rng.sample(range(1, n + 1), min(n, rng.randint(1, 4)))
            distances = hop_distances(graph, roots)
            for limit in (None, 0, 1, 2, 3, 4):
                shells = graph.shells(*roots, limit=limit)
                assert shells[0] == tuple(roots)
                depths = [(gid, d) for d, shell in enumerate(shells) for gid in shell]
                assert len(depths) == len(dict(depths))
                # No hop count reaches n; an unreachable node's is math.inf.
                reach = n if limit is None else limit
                assert dict(depths) == {g: d for g, d in distances.items() if d <= reach}

    def test_unreachable_infinity(self):
        graph = make_graph([(1, 1, 0.0), (2, 1, 0.0), (3, 1, 0.0)], [(1, 2)], C_MASS)
        assert math.isinf(hop_distances(graph, {1})[3])

    # eccentricity is the deepest shell; the similarity matrix masks depths with it
    def test_eccentricity_center_and_end(self):
        graph3 = build_unified_graph([path_topology(3)], "reactant")
        assert len(graph3.shells(2)) - 1 == 1
        graph5 = build_unified_graph([path_topology(5)], "reactant")
        assert len(graph5.shells(1)) - 1 == 4

    def test_eccentricity_isolated(self):
        graph = make_graph([(1, 1, 0.0)], [], C_MASS)
        assert len(graph.shells(1)) - 1 == 0


class TestDotExport:
    def test_roles_and_labels(self):
        graph = build_unified_graph([path_topology(3)], "reactant")
        text = dot_export(graph, {1: "conserved", 2: "initiator", 3: "similarity"})
        assert 'fillcolor="black"' in text
        assert 'fillcolor="orange"' in text
        assert 'fillcolor="red"' in text
        assert "n1 -- n2;" in text
        assert text.endswith("\n")

    def test_plain_graph_default_color(self):
        graph = build_unified_graph([h2_topology()], "reactant")
        text = dot_export(graph)
        assert text.count("lightgray") >= 2
