import random

import pytest

from conftest import (
    alkene_dimerization,
    all_atom_kernel_input,
    hydrogen_decorated_pair,
    kernel_form_graphs,
    make_graph,
    make_topology,
    mcs_oracle_pairs,
    mcs_oracle_size,
    random_allowed,
    random_attributed_pair,
    weighted_oracle_pairs,
)
from templater.conserved_mapping import (
    AtomMapping,
    iterate_conserved,
    max_common_subgraph,
    validate_mapping,
)
from templater import conserved_mapping
from templater.errors import BudgetExceeded, ValidationError
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


def with_odd_hydrogens(rng, labels, adj, leaf):
    """Kernel-form side plus, at random, a hydrogen bonded to two heavy
    atoms or an H2 molecule, the two shapes a leaf label cannot fold."""
    labels, adj = list(labels), list(adj)
    heavy = [v for v, label in enumerate(labels) if label != leaf]
    shape = rng.randrange(8)
    if shape == 6 and len(heavy) > 1:
        a, b = rng.sample(heavy, 2)
        node = len(labels)
        labels.append(leaf)
        adj.append(1 << a | 1 << b)
        adj[a] |= 1 << node
        adj[b] |= 1 << node
    elif shape == 7:
        node = len(labels)
        labels += [leaf, leaf]
        adj += [1 << node + 1, 1 << node]
    return labels, adj


def assert_common_subgraph(pairs, g_r, g_p, required):
    """Injective, mass- and type-preserving, induced, connected and within
    the required images."""
    assert len({w for _, w in pairs}) == len(pairs) == len({v for v, _ in pairs})
    for v, w in pairs:
        assert (g_r.nodes[v].mass, g_r.nodes[v].type_id) == (g_p.nodes[w].mass, g_p.nodes[w].type_id)
        assert all(g_p.has_edge(image, w) for image in required.get(v, ()))
        for u, x in pairs:
            assert g_r.has_edge(v, u) == g_p.has_edge(w, x)
    if pairs:
        members = {v for v, _ in pairs}
        seen, frontier = {pairs[0][0]}, [pairs[0][0]]
        while frontier:
            for other in g_r.neighbors(frontier.pop()):
                if other in members and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        assert seen == members


def folded_oracle(labels_r, adj_r, labels_p, adj_p):
    """The folded search's result by exhaustive enumeration, in node indices.

    Folds each label the rule folds, finds the smallest sorted skeleton
    pair list among those of largest weight, and pairs the leaves of each
    matched pair by ascending index; a weight of 1 or less gives the
    smallest compatible pair over every node.  Written from neighbour
    lists, independently of the bitmask code it checks.
    """

    def neighbours(adj, v):
        return [u for u in range(len(adj)) if (adj[v] >> u) & 1]

    def foldable(labels, adj, label):
        for v, other in enumerate(labels):
            nbrs = neighbours(adj, v) if other == label else []
            if len(nbrs) > 1 or (nbrs and len(neighbours(adj, nbrs[0])) < 2):
                return False
        return True

    def leaves(labels, adj, v, label):
        return [u for u in neighbours(adj, v) if labels[u] == label]

    def crowded(labels, adj, label):
        return any(len(leaves(labels, adj, v, label)) > 1 for v in range(len(labels)))

    folded = [
        label
        for label in sorted(set(labels_r) & set(labels_p))
        if foldable(labels_r, adj_r, label)
        and foldable(labels_p, adj_p, label)
        and (crowded(labels_r, adj_r, label) or crowded(labels_p, adj_p, label))
    ]

    def skeleton(labels, adj):
        keep = [v for v, label in enumerate(labels) if label not in folded]
        masks = [sum(1 << k for k, u in enumerate(keep) if (adj[v] >> u) & 1) for v in keep]
        return keep, [labels[v] for v in keep], masks

    keep_r, skel_labels_r, skel_adj_r = skeleton(labels_r, adj_r)
    keep_p, skel_labels_p, skel_adj_p = skeleton(labels_p, adj_p)

    def weight(i, j):
        v, w = keep_r[i], keep_p[j]
        return 1 + sum(
            min(len(leaves(labels_r, adj_r, v, label)), len(leaves(labels_p, adj_p, w, label)))
            for label in folded
        )

    pairs, best = weighted_oracle_pairs(skel_labels_r, skel_adj_r, skel_labels_p, skel_adj_p, weight)
    if best <= 1:
        compatible = [
            (v, w)
            for v in range(len(labels_r))
            for w in range(len(labels_p))
            if labels_r[v] == labels_p[w]
        ]
        return compatible[:1]
    result = []
    for i, j in pairs:
        v, w = keep_r[i], keep_p[j]
        result.append((v, w))
        for label in folded:
            result += zip(leaves(labels_r, adj_r, v, label), leaves(labels_p, adj_p, w, label))
    return sorted(result)


def all_atom_size(g_r, g_p, include_r, include_p, required):
    """Conserved pair count of the kernel searching every atom as a node."""
    labels_r, labels_p, adj_r, adj_p, allowed = all_atom_kernel_input(
        g_r, g_p, include_r, include_p, required
    )
    pairs, _ = max_common_connected_subgraph(labels_r, labels_p, adj_r, adj_p, 10**7, allowed)
    return len(pairs)


def recorded_kernel_calls(monkeypatch):
    """Per kernel call that ``conserved_mapping`` makes, how many labels
    it folds."""
    calls = []

    def recording(*args):
        calls.append(len(args[6] or ()))
        return max_common_connected_subgraph(*args)

    monkeypatch.setattr(conserved_mapping, "max_common_connected_subgraph", recording)
    return calls


class TestFoldedSearch:
    """Hydrogen-like leaves fold into counts on their heavy atom."""

    def test_cardinality_matches_all_atom_search(self, monkeypatch):
        # Random hydrogen-decorated pairs, some with a bridging hydrogen or
        # H2, searched on random node restrictions with random required
        # images; the all-atom kernel call is the reference.
        calls = recorded_kernel_calls(monkeypatch)
        rng = random.Random(20250)
        for case in range(3000):
            labels_r, adj_r, labels_p, adj_p = hydrogen_decorated_pair(rng, max_heavy=4)
            labels_r, adj_r = with_odd_hydrogens(rng, labels_r, adj_r, 2)
            labels_p, adj_p = with_odd_hydrogens(rng, labels_p, adj_p, 2)
            g_r, g_p = kernel_form_graphs(labels_r, adj_r, labels_p, adj_p)
            include_r, include_p = set(g_r.nodes), set(g_p.nodes)
            if case % 3 == 1:
                include_r = {g for g in include_r if rng.random() < 0.8} or include_r
                include_p = {g for g in include_p if rng.random() < 0.8} or include_p
            required: dict[int, set[int]] = {}
            if case % 4 == 2:
                for gid in rng.sample(sorted(include_r), min(2, len(include_r))):
                    required[gid] = {rng.choice(sorted(g_p.nodes))}
            pairs, _ = max_common_subgraph(g_r, g_p, include_r, include_p, 10**7, required)
            assert len(pairs) == all_atom_size(g_r, g_p, include_r, include_p, required)
            assert {v for v, _ in pairs} <= include_r and {w for _, w in pairs} <= include_p
            assert_common_subgraph(pairs, g_r, g_p, required)
        # A quarter of the searches fold; in the others a rule keeps the
        # leaf label in the skeleton.
        assert calls.count(1) > 700 and calls.count(0) > 1500

    def test_ties_smallest_skeleton_pairs_then_leaves_by_id(self, monkeypatch):
        calls = recorded_kernel_calls(monkeypatch)
        rng = random.Random(5150)
        for _ in range(1000):
            labels_r, adj_r, labels_p, adj_p = hydrogen_decorated_pair(rng)
            labels_r, adj_r = with_odd_hydrogens(rng, labels_r, adj_r, 2)
            labels_p, adj_p = with_odd_hydrogens(rng, labels_p, adj_p, 2)
            g_r, g_p = kernel_form_graphs(labels_r, adj_r, labels_p, adj_p)
            pairs, _ = max_common_subgraph(g_r, g_p)
            expected = folded_oracle(labels_r, adj_r, labels_p, adj_p)
            assert pairs == [(v + 1, w + 1) for v, w in expected]
        assert calls.count(1) > 250

    def test_constrained_leaf_label_does_not_fold(self, monkeypatch):
        # A hydrogen whose carbon is already mapped keeps its required
        # images; its label then stays in the skeleton for that search.
        calls = recorded_kernel_calls(monkeypatch)
        g_r, g_p = alkene_dimerization(5, random.Random(0))
        rest_r = set(g_r.components[1])
        hydrogen = max(g for g in rest_r if g_r.nodes[g].mass == 1.008)
        rest_r.discard(g_r.neighbors(hydrogen)[0])
        rest_p = set(g_p.nodes)
        image = min(g for g in rest_p if g_p.nodes[g].mass == 12.011)
        for required in ({}, {hydrogen: {image}}):
            pairs, _ = max_common_subgraph(g_r, g_p, rest_r, rest_p, 10**7, required)
            assert len(pairs) == all_atom_size(g_r, g_p, rest_r, rest_p, required)
        assert calls == [1, 0]


class TestLargeMolecules:
    def test_alkene_dimerizations_finish_within_budget(self):
        # Searched atom by atom, these take thousands to millions of
        # expansions depending on atom order; one order at n = 20 ran past
        # 3 million.
        for n, orders in ((20, 8), (24, 8), (32, 8), (64, 8)):
            for seed in range(orders):
                g_reac, g_prod = alkene_dimerization(n, random.Random(seed))
                mapping = iterate_conserved(g_reac, g_prod, budget=200_000)
                assert len(mapping.pairs) == 6 * n - 10
                validate_mapping(mapping, g_reac, g_prod)

    def test_gem_dimethyl_chain_maps_whole_within_small_budget(self):
        # A polyisobutylene-like chain of 12 -CH2-C(CH3)2- units against
        # itself.  Folding the hydrogens leaves the two methyl carbons of
        # each unit as skeleton twins.  Without twin pruning the search took
        # 30,758 expansions here, doubling with every unit; with it, 105.
        units = 12
        types, bonds = [], []

        def atom(type_id, parent=None):
            types.append(type_id)
            if parent is not None:
                bonds.append((parent, len(types)))
            return len(types)

        backbone = None
        for _ in range(units):
            ch2 = atom(1, backbone)
            atom(2, ch2)
            atom(2, ch2)
            backbone = atom(1, ch2)
            for _ in range(2):
                methyl = atom(1, backbone)
                for _ in range(3):
                    atom(2, methyl)
        atoms = [(i, t, 0.0) for i, t in enumerate(types, start=1)]
        masses = {1: C, 2: 1.008}
        g_r = make_graph(atoms, bonds, masses, "reactant")
        g_p = make_graph(atoms, bonds, masses, "product")
        pairs, _ = max_common_subgraph(g_r, g_p, budget=1000)
        assert len(pairs) == 12 * units == 144
        assert_common_subgraph(pairs, g_r, g_p, {})

    def test_too_small_budget_still_raises(self, monkeypatch):
        # One expansion short of the largest search still fails.
        spent = []

        def recording(*args):
            pairs, expansions = max_common_connected_subgraph(*args)
            spent.append(expansions)
            return pairs, expansions

        monkeypatch.setattr(conserved_mapping, "max_common_connected_subgraph", recording)
        g_reac, g_prod = alkene_dimerization(20, random.Random(1))
        iterate_conserved(g_reac, g_prod, budget=200_000)
        iterate_conserved(g_reac, g_prod, budget=max(spent))
        with pytest.raises(BudgetExceeded):
            iterate_conserved(g_reac, g_prod, budget=max(spent) - 1)


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
        assert two.unmapped()[0] == {3}
        assert {two.provenance[r] for r in (1, 2)} == {"conserved-1"}
        assert {two.provenance[r] for r in (4, 5)} == {"conserved-2"}

    def test_empty_mapping_legal(self):
        g1 = make_graph([(1, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], {2: O}, "product")
        mapping = iterate_conserved(g1, g2)
        assert mapping.pairs == {}
        assert mapping.unmapped()[0] == {1}

    def test_monotone_residual(self):
        rng = random.Random(7)
        for _ in range(20):
            g_reac, g_prod = kernel_form_graphs(
                *random_attributed_pair(rng, max_nodes=8)
            )
            previous = None
            for iterations in (1, 2, 3):
                mapping = iterate_conserved(g_reac, g_prod, iterations=iterations)
                residual = len(mapping.unmapped()[0])
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
        mapping = AtomMapping(g1, g2)
        mapping.add(1, 1, "conserved-1")
        with pytest.raises(ValidationError):
            validate_mapping(mapping, g1, g2)

    def test_detects_edge_violation(self):
        g1 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [(1, 2)], {1: C}, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [], {1: C}, "product")
        mapping = AtomMapping(g1, g2)
        mapping.add(1, 1, "conserved-1")
        mapping.add(2, 2, "conserved-1")
        with pytest.raises(ValidationError):
            validate_mapping(mapping, g1, g2)

    def test_injection_enforced_on_add(self):
        g1 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 1, 0.0)], [], {1: C}, "product")
        mapping = AtomMapping(g1, g2)
        mapping.add(1, 1, "similarity")
        with pytest.raises(ValidationError):
            mapping.add(2, 1, "similarity")


class TestMappingCarriesGraphs:
    """A mapping relates the two graphs it carries; later stages read them there."""

    def test_copy_keeps_graphs(self):
        g_reac, g_prod = split_reaction_graphs()
        mapping = iterate_conserved(g_reac, g_prod)
        assert mapping.g_reac is g_reac and mapping.g_prod is g_prod
        copied = mapping.copy()
        assert copied.g_reac is g_reac and copied.g_prod is g_prod
        assert copied == mapping
        assert copied.unmapped() == mapping.unmapped() == ({3}, {3})

    def test_graphs_take_no_part_in_equality(self):
        one = iterate_conserved(*split_reaction_graphs())
        other = iterate_conserved(*split_reaction_graphs())
        assert one.g_reac is not other.g_reac
        assert one == other
        assert repr(one) == repr(other)
        assert "g_reac" not in repr(one)
