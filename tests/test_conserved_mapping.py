import random

import pytest

from conftest import (
    alkene_dimerization,
    hydrogen_decorated_pair,
    make_graph,
    make_topology,
    mcs_oracle_pairs,
    mcs_oracle_size,
    random_allowed,
    random_attributed_pair,
)
from templater.conserved_mapping import (
    AtomMapping,
    iterate_conserved,
    max_common_subgraph,
    validate_mapping,
)
from templater.errors import ValidationError
from templater.graph_core import build_unified_graph
from templater.kernels import max_common_connected_subgraph

C = 12.011
O = 15.999
MASSES = {1: C, 2: O, 3: 1.008}


class TestMaxCommonSubgraph:
    def test_identical_graphs_full_mapping(self):
        atoms = [(1, 1, 0.0), (2, 2, 0.0), (3, 1, 0.0), (4, 2, 0.0)]
        bonds = [(1, 2), (2, 3), (3, 4)]
        g1 = make_graph(atoms, bonds, MASSES, "reactant")
        g2 = make_graph(atoms, bonds, MASSES, "product")
        pairs, _ = max_common_subgraph(g1, g2)
        assert pairs == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_path_aba_vs_ab(self):
        g1 = make_graph([(1, 1, 0.0), (2, 2, 0.0), (3, 1, 0.0)], [(1, 2), (2, 3)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "product")
        pairs, _ = max_common_subgraph(g1, g2)
        assert len(pairs) == 2

    def test_no_common_subgraph(self):
        g1 = make_graph([(1, 1, 0.0)], [], MASSES, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], MASSES, "product")
        assert max_common_subgraph(g1, g2) == ([], 0)

    def test_mass_must_match_too(self):
        # Same type id but different masses must not match.
        g1 = make_graph([(1, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 1, 0.0)], [], {1: O}, "product")
        assert max_common_subgraph(g1, g2) == ([], 0)

    def test_charge_not_a_criterion(self):
        g1 = make_graph([(1, 1, 0.5)], [], MASSES, "reactant")
        g2 = make_graph([(1, 1, -0.5)], [], MASSES, "product")
        pairs, _ = max_common_subgraph(g1, g2)
        assert pairs == [(1, 1)]


class TestOracleEquivalence:
    def test_kernel_matches_exhaustive_oracle(self):
        rng = random.Random(123)
        for _ in range(60):
            labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng, max_nodes=8)
            pairs, _ = max_common_connected_subgraph(labels_r, labels_p, adj_r, adj_p, 10**7)
            assert len(pairs) == mcs_oracle_size(labels_r, adj_r, labels_p, adj_p)
            assert pairs == mcs_oracle_pairs(labels_r, adj_r, labels_p, adj_p)
        # Symmetric hydrogen-like leaves (twins) and external allowed masks.
        rng = random.Random(321)
        for i in range(120):
            if i % 2:
                labels_r, adj_r, labels_p, adj_p = hydrogen_decorated_pair(rng)
            else:
                labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng, max_nodes=8)
            for allowed in (None, random_allowed(rng, len(labels_r), len(labels_p))):
                pairs, _ = max_common_connected_subgraph(
                    labels_r, labels_p, adj_r, adj_p, 10**7, allowed
                )
                assert pairs == mcs_oracle_pairs(labels_r, adj_r, labels_p, adj_p, allowed)


def split_reaction_graphs():
    """A reaction cutting a molecule's center into two conserved fragments.

    Reactant: A-A-B-A-A with the central B typed differently in the product,
    so the two A-A arms survive as separate fragments.
    """
    reactant = make_topology(
        [(1, 1, 0.0), (2, 1, 0.0), (3, 2, 0.0), (4, 1, 0.0), (5, 1, 0.0)],
        [(1, 2), (2, 3), (3, 4), (4, 5)],
        {1: C, 2: O, 4: 14.007},
    )
    product = make_topology(
        [(1, 1, 0.0), (2, 1, 0.0), (3, 4, 0.0), (4, 1, 0.0), (5, 1, 0.0)],
        [(1, 2), (2, 3), (3, 4), (4, 5)],
        {1: C, 2: O, 4: 14.007},
    )
    g_reac = build_unified_graph([reactant], "reactant")
    g_prod = build_unified_graph([product], "product")
    return g_reac, g_prod


class TestIterateConserved:
    def test_symmetric_hydrogens_stay_within_small_budget(self):
        # The hydrogens on one carbon are interchangeable.  A search that
        # tries each of their permutations needs 2.0k-6.5k expansions in the
        # largest call on these atom orders, well above the budget.
        for seed in range(4):
            g_reac, g_prod = alkene_dimerization(7, random.Random(seed))
            mapping = iterate_conserved(g_reac, g_prod, budget=1000)
            validate_mapping(mapping, g_reac, g_prod)
            assert len(mapping.pairs) == 32

    def test_two_fragments_need_two_iterations(self):
        g_reac, g_prod = split_reaction_graphs()
        one = iterate_conserved(g_reac, g_prod, iterations=1)
        assert len(one.pairs) == 2
        two = iterate_conserved(g_reac, g_prod, iterations=2)
        assert len(two.pairs) == 4
        assert two.unmapped(g_reac, g_prod)[0] == {3}
        assert {two.provenance[r] for r in (1, 2)} == {"conserved-1"}
        assert {two.provenance[r] for r in (4, 5)} == {"conserved-2"}

    def test_empty_mapping_legal(self):
        g1 = make_graph([(1, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], {2: O}, "product")
        mapping = iterate_conserved(g1, g2)
        assert mapping.pairs == {}
        assert mapping.unmapped(g1, g2)[0] == {1}

    def test_monotone_residual(self):
        rng = random.Random(7)
        for _ in range(20):
            labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng, max_nodes=8)
            atoms_r = [(i + 1, l + 1, 0.0) for i, l in enumerate(labels_r)]
            atoms_p = [(i + 1, l + 1, 0.0) for i, l in enumerate(labels_p)]
            bonds_r = [
                (i + 1, j + 1)
                for i in range(len(labels_r))
                for j in range(i + 1, len(labels_r))
                if (adj_r[i] >> j) & 1
            ]
            bonds_p = [
                (i + 1, j + 1)
                for i in range(len(labels_p))
                for j in range(i + 1, len(labels_p))
                if (adj_p[i] >> j) & 1
            ]
            masses = {1: C, 2: O, 3: 1.008}
            g_reac = make_graph(atoms_r, bonds_r, masses, "reactant")
            g_prod = make_graph(atoms_p, bonds_p, masses, "product")
            previous = None
            for iterations in (1, 2, 3):
                mapping = iterate_conserved(g_reac, g_prod, iterations=iterations)
                residual = len(mapping.unmapped(g_reac, g_prod)[0])
                if previous is not None:
                    assert residual <= previous
                previous = residual
                validate_mapping(mapping, g_reac, g_prod)

    def test_determinism(self):
        g_reac, g_prod = split_reaction_graphs()
        first = iterate_conserved(g_reac, g_prod)
        second = iterate_conserved(g_reac, g_prod)
        assert first.pairs == second.pairs
        assert first.provenance == second.provenance

    def test_per_molecule_pairing_never_mixes(self):
        h2 = make_topology([(1, 3, 0.0), (2, 3, 0.0)], [(1, 2)], {3: 1.008})
        g_reac = build_unified_graph([h2, h2], "reactant")
        g_prod = build_unified_graph([h2, h2], "product")
        mapping = iterate_conserved(g_reac, g_prod)
        for component in (1, 2):
            images = {
                g_prod.nodes[mapping.pairs[r]].component
                for r in g_reac.components[component]
                if r in mapping.pairs
            }
            assert len(images) == 1


class TestValidator:
    def test_detects_attribute_violation(self):
        g1 = make_graph([(1, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], {2: O}, "product")
        mapping = AtomMapping()
        mapping.add(1, 1, "conserved-1")
        with pytest.raises(ValidationError):
            validate_mapping(mapping, g1, g2)

    def test_detects_edge_violation(self):
        g1 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [(1, 2)], {1: C}, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [], {1: C}, "product")
        mapping = AtomMapping()
        mapping.add(1, 1, "conserved-1")
        mapping.add(2, 2, "conserved-1")
        with pytest.raises(ValidationError):
            validate_mapping(mapping, g1, g2)

    def test_injection_enforced_on_add(self):
        mapping = AtomMapping()
        mapping.add(1, 1, "similarity")
        with pytest.raises(ValidationError):
            mapping.add(2, 1, "similarity")
