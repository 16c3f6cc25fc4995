import itertools
import logging
import random

import pytest

from conftest import (
    CASE_STUDIES,
    alkene_dimerization,
    all_atom_kernel_input,
    bond_edits,
    fixture_path,
    hydrogen_decorated_pair,
    kernel_form_graphs,
    make_graph,
    make_topology,
    mcs_oracle_pairs,
    mcs_oracle_size,
    random_allowed,
    random_attributed_pair,
    ring_opening,
    ua_dimerization,
    weighted_oracle_pairs,
)
from templater.conserved_mapping import (
    DEFAULT_BUDGET,
    AtomMapping,
    conserved_tag,
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
        g1 = make_graph([(1, 1, 0.5), (2, 2, 0.1)], [(1, 2)], MASSES, "reactant")
        g2 = make_graph([(1, 1, -0.5), (2, 2, -0.1)], [(1, 2)], MASSES, "product")
        pairs, _ = max_common_subgraph(g1, g2)
        assert pairs == [(1, 1), (2, 2)]

    def test_single_pair_is_no_result(self):
        # One pair keeps no bond, so it is not a conserved region.
        g1 = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 1, 0.0)], [(1, 2)], MASSES, "product")
        assert max_common_subgraph(g1, g2)[0] == []


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
    """Pair count of the kernel searching every atom as a node."""
    labels_r, labels_p, adj_r, adj_p, allowed = all_atom_kernel_input(
        g_r, g_p, include_r, include_p, required
    )
    pairs, _ = max_common_connected_subgraph(labels_r, labels_p, adj_r, adj_p, 10**7, allowed)
    return len(pairs)


def at_least_two(result):
    """An oracle's pair count or pair list as ``max_common_subgraph`` gives
    it: nothing when it has fewer than 2 pairs."""
    if isinstance(result, int):
        return result if result >= 2 else 0
    return result if len(result) >= 2 else []


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
            assert len(pairs) == at_least_two(
                all_atom_size(g_r, g_p, include_r, include_p, required)
            )
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
            expected = at_least_two(folded_oracle(labels_r, adj_r, labels_p, adj_p))
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
            assert len(pairs) == at_least_two(all_atom_size(g_r, g_p, rest_r, rest_p, required))
        assert calls == [1, 0]


def shuffled(rng, labels, adj):
    """The same kernel-form side with its node indices permuted."""
    order = list(range(len(labels)))
    rng.shuffle(order)
    new_labels = [None] * len(labels)
    new_adj = [0] * len(labels)
    for old, new in enumerate(order):
        new_labels[new] = labels[old]
        for nbr in range(len(labels)):
            if (adj[old] >> nbr) & 1:
                new_adj[new] |= 1 << order[nbr]
    return new_labels, new_adj


def branched_alkane(kind, size):
    """Kernel-form all-atom alkane, carbons label 0 and hydrogens label 1:
    ``size`` -CH2-C(CH3)2- units (gem-dimethyl), or a chain of ``size``
    carbons ending in a tert-butyl group."""
    bonds = []
    if kind == "gem-dimethyl":
        carbons, backbone = 0, None
        for _ in range(size):
            ch2, quaternary = carbons, carbons + 1
            bonds += [(ch2, quaternary), (quaternary, carbons + 2), (quaternary, carbons + 3)]
            if backbone is not None:
                bonds.append((backbone, ch2))
            backbone, carbons = quaternary, carbons + 4
    else:
        bonds = [(i, i + 1) for i in range(size)]
        bonds += [(size, size + k) for k in (1, 2, 3)]
        carbons = size + 4
    labels = [0] * carbons
    adj = [0] * carbons
    for a, b in bonds:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    for carbon in range(carbons):
        for _ in range(4 - adj[carbon].bit_count()):
            adj.append(1 << carbon)
            adj[carbon] |= 1 << len(labels)
            labels.append(1)
    return labels, adj


def methyl_twin_side(rng):
    """Random kernel-form alkane, carbons label 0 and hydrogens label 1: a
    tree of 1-3 carbons, two more carbons on one of them, and at most one
    more carbon anywhere.  Each carbon has 2-4 neighbours and mostly four,
    so the two added carbons are often methyl twins and sometimes differ
    by a branch or a hydrogen."""
    labels = [0] * rng.randint(1, 3)
    adj = [0] * len(labels)

    def add(label, parent):
        labels.append(label)
        adj.append(1 << parent)
        adj[parent] |= 1 << len(labels) - 1

    for atom in range(1, len(labels)):
        other = rng.randrange(atom)
        adj[atom] |= 1 << other
        adj[other] |= 1 << atom
    parent = rng.randrange(len(labels))
    add(0, parent)
    add(0, parent)
    if rng.random() < 0.5:
        add(0, rng.randrange(len(labels)))
    for atom in range(len(labels)):
        most = max(4 - adj[atom].bit_count(), 0)
        least = min(max(2 - adj[atom].bit_count(), 0), most)
        for _ in range(rng.choice((most, most, rng.randint(least, most)))):
            add(1, atom)
    return shuffled(rng, labels, adj)


class TestRestrictedTwinPrune:
    """The search branches on the least-connected node of a class; only when
    that node is also the class's lowest does it skip product twins.  These
    inputs have twin groups (two methyls on one carbon, three in a
    tert-butyl group) in shuffled node order, so the least-connected node is
    often not the lowest; the folded search must equal the exhaustive oracle."""

    def assert_oracle(self, labels_r, adj_r, labels_p, adj_p):
        g_r, g_p = kernel_form_graphs(labels_r, adj_r, labels_p, adj_p)
        pairs, _ = max_common_subgraph(g_r, g_p)
        expected = at_least_two(folded_oracle(labels_r, adj_r, labels_p, adj_p))
        assert pairs == [(v + 1, w + 1) for v, w in expected]

    def test_shuffled_branched_alkanes(self):
        rng = random.Random(8086)
        shapes = [("gem-dimethyl", 1), ("gem-dimethyl", 2), ("tert-butyl", 1),
                  ("tert-butyl", 2), ("tert-butyl", 4)]
        for _ in range(60):
            side_r = shuffled(rng, *branched_alkane(*rng.choice(shapes)))
            side_p = shuffled(rng, *branched_alkane(*rng.choice(shapes)))
            self.assert_oracle(*side_r, *side_p)

    def test_random_pairs_with_methyl_twins(self):
        rng = random.Random(6502)
        for _ in range(400):
            self.assert_oracle(*methyl_twin_side(rng), *methyl_twin_side(rng))


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

    def test_split_molecule_maps_both_arms(self):
        # One reactant molecule, one product molecule: each arm is a
        # candidate of its own, and the retyped centre keeps no bond.
        g_reac, g_prod = split_reaction_graphs()
        mapping = iterate_conserved(g_reac, g_prod)
        assert len(mapping.pairs) == 4
        assert mapping.unmapped()[0] == {3}
        assert {mapping.provenance[r] for r in (1, 2)} == {"conserved-1"}
        assert {mapping.provenance[r] for r in (4, 5)} == {"conserved-2"}

    def test_empty_mapping_legal(self):
        g1 = make_graph([(1, 1, 0.0)], [], {1: C}, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], {2: O}, "product")
        mapping = iterate_conserved(g1, g2)
        assert mapping.pairs == {}
        assert mapping.unmapped()[0] == {1}

    def test_spectator_molecule_changes_nothing(self, caplog):
        # A third molecule, unchanged, on both sides is the largest conserved
        # candidate: iteration 1 maps it whole.  The later iterations search
        # its empty remainder on both sides and find nothing there, so the
        # reacting pair gets the initiators and templates of the run
        # without it.
        from templater.cli import RunConfig, run_stages

        reactants, products = CASE_STUDIES["polycondensation"]
        spectator = fixture_path("octane.data")
        alone = run_stages(RunConfig(reactants, products))
        with caplog.at_level(logging.INFO, logger="templater"):
            joined = run_stages(RunConfig(reactants + [spectator], products + [spectator]))
        mapping = joined.mapping
        for r_gid in joined.g_reac.components[3]:
            assert mapping.provenance[r_gid] == "conserved-1"
            assert joined.g_prod.nodes[mapping.pairs[r_gid]].component == 2
        for empty in ("molecules 3 -> 1", "molecules 3 -> 2", "molecules 1 -> 2"):
            assert f"iteration 2, {empty}: 0 pairs, 0 expansions" in caplog.text
        assert joined.report.initiators == alone.report.initiators == (7, 34)
        assert joined.templates == alone.templates
        assert joined.templates.pre.atom_count == 32

    @pytest.mark.parametrize(
        "name, spectator, edits, initiators",
        [
            ("polyaddition", "octane.data", (1, 2), (28, 44)),
            # A tie: the extra butene is a second copy of the chain's
            # reactant.  Iteration 1 maps reactant molecule 1, the smallest
            # pair list, whole onto it, and molecules 2 and 3 react at the
            # atoms the run without it finds at (1, 13), 12 ids later.
            ("chain", "butene.data", (0, 3), (13, 25)),
        ],
        ids=["polyaddition-octane", "chain-butene"],
    )
    def test_spectator_keeps_the_minimal_map(self, name, spectator, edits, initiators):
        from templater.cli import RunConfig, run_stages

        reactants, products = CASE_STUDIES[name]
        extra = fixture_path(spectator)
        alone = run_stages(RunConfig(reactants, products))
        joined = run_stages(RunConfig(reactants + [extra], products + [extra]))
        assert bond_edits(joined.mapping, joined.g_reac, joined.g_prod) == edits
        assert bond_edits(alone.mapping, alone.g_reac, alone.g_prod) == edits
        assert joined.report.initiators == initiators
        assert joined.templates.pre.atom_count == alone.templates.pre.atom_count

    def test_one_common_label_needs_a_bond_of_its_own(self, monkeypatch):
        # C-C-O against C-N-C: two carbons a side reach the count bound of
        # 2, but the product has no C-C bond to keep, so no kernel call is
        # made.  Against C-C-N the C-C bond is kept.
        calls = recorded_kernel_calls(monkeypatch)
        masses = {1: C, 2: O, 4: 14.007}
        g_r = make_graph([(1, 1, 0.0), (2, 1, 0.0), (3, 2, 0.0)], [(1, 2), (2, 3)], masses)
        g_p = make_graph([(1, 1, 0.0), (2, 4, 0.0), (3, 1, 0.0)], [(1, 2), (2, 3)], masses, "product")
        assert iterate_conserved(g_r, g_p).pairs == {}
        assert calls == []
        g_p = make_graph([(1, 1, 0.0), (2, 1, 0.0), (3, 4, 0.0)], [(1, 2), (2, 3)], masses, "product")
        assert iterate_conserved(g_r, g_p).sorted_pairs() == [(1, 1), (2, 2)]
        assert calls == [0]

    def test_no_bond_left_to_conserve(self):
        # After the stage, no (reactant molecule, product molecule) pair of
        # remainders has a common subgraph of 2 or more pairs that keeps
        # the edges toward the mapped atoms.
        rng = random.Random(7)
        for _ in range(20):
            g_reac, g_prod = kernel_form_graphs(
                *random_attributed_pair(rng, max_nodes=8)
            )
            mapping = iterate_conserved(g_reac, g_prod)
            validate_mapping(mapping, g_reac, g_prod)
            required = required_images(mapping)
            for rc in g_reac.components:
                rest_r = {g for g in g_reac.components[rc] if g not in mapping.pairs}
                for pc in g_prod.components:
                    rest_p = {g for g in g_prod.components[pc] if g not in mapping.reverse}
                    pairs, _ = max_common_subgraph(
                        g_reac, g_prod, rest_r, rest_p, DEFAULT_BUDGET, required
                    )
                    assert pairs == []

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


def required_images(mapping):
    """Per unmapped reactant node, the images of its mapped neighbours."""
    g_reac = mapping.g_reac
    required = {}
    for r_gid in g_reac.nodes:
        images = {mapping.pairs[u] for u in g_reac.neighbors(r_gid) if u in mapping.pairs}
        if images and r_gid not in mapping.pairs:
            required[r_gid] = images
    return required


def iterate_conserved_without_floor(g_reac, g_prod, budget=DEFAULT_BUDGET):
    """``iterate_conserved`` with every search run in full, no incumbent:
    each (reactant molecule, product molecule) search of an iteration is
    compared here, and the most pairs, ties to the smallest sorted pair
    list, wins.  It stops when no search finds 2 or more pairs."""
    mapping = AtomMapping(g_reac, g_prod)
    for iteration in itertools.count(1):
        required = required_images(mapping)
        best = None
        for rc in sorted(g_reac.components):
            rest_r = {g for g in g_reac.components[rc] if g not in mapping.pairs}
            for pc in sorted(g_prod.components):
                rest_p = {g for g in g_prod.components[pc] if g not in mapping.reverse}
                pairs, _ = max_common_subgraph(g_reac, g_prod, rest_r, rest_p, budget, required)
                if len(pairs) >= 2 and (best is None or (-len(pairs), pairs) < best):
                    best = (-len(pairs), pairs)
        if best is None:
            return mapping
        for r_gid, p_gid in best[1]:
            mapping.add(r_gid, p_gid, conserved_tag(iteration))


def graphs_of(reactants, products):
    from templater.cli import RunConfig, run_stages

    state = run_stages(RunConfig(reactants, products), through="graphs")
    return state.g_reac, state.g_prod


class TestIncumbentFloor:
    """The best candidate so far is a floor for the later searches of its
    iteration; the accepted candidates must equal those of full searches."""

    def assert_same_as_full_searches(self, g_reac, g_prod):
        mapping = iterate_conserved(g_reac, g_prod)
        reference = iterate_conserved_without_floor(g_reac, g_prod)
        assert mapping.pairs == reference.pairs
        assert mapping.provenance == reference.provenance

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_families(self, seed):
        for g_reac, g_prod in (
            alkene_dimerization(7, random.Random(seed)),
            alkene_dimerization(5, random.Random(seed), 4),
            ua_dimerization(96, random.Random(seed)),
            ring_opening(4, random.Random(seed), 3),
        ):
            self.assert_same_as_full_searches(g_reac, g_prod)

    def test_split_molecule_and_a_third_candidate(self):
        self.assert_same_as_full_searches(*split_reaction_graphs())
        # Retyping within 3 bonds of the new bonds leaves a third conserved
        # fragment of 2 pairs.
        g_reac, g_prod = ring_opening(4, random.Random(0), 3)
        mapping = iterate_conserved(g_reac, g_prod)
        assert list(mapping.provenance.values()).count("conserved-3") == 2

    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_case_studies_with_a_spectator(self, name):
        reactants, products = CASE_STUDIES[name]
        spectator = fixture_path("octane.data")
        self.assert_same_as_full_searches(
            *graphs_of(reactants + [spectator], products + [spectator])
        )

    def test_ties_across_molecules(self):
        # Two copies of one reactant tie across reactant molecules; a
        # product given twice makes each reactant molecule tie across
        # product molecules.
        reactants, products = CASE_STUDIES["chain"]
        self.assert_same_as_full_searches(*graphs_of(reactants, products))
        reactants, products = CASE_STUDIES["polycondensation"]
        self.assert_same_as_full_searches(*graphs_of(reactants, products))
        self.assert_same_as_full_searches(*graphs_of(reactants, products * 2))

    def test_later_product_molecule_wins_a_tie(self):
        # Reactant a-b-c-Z-d-e-f: its d-e-f end is product molecule 1 and its
        # a-b-c end product molecule 2.  Both searches find 3 pairs; the
        # second has the smaller pair list, so a floor in one reactant
        # molecule must be reached, not beaten.
        masses = {t: 10.0 + t for t in range(1, 8)}
        chain = [(i, t, 0.0) for i, t in enumerate((1, 2, 3, 7, 4, 5, 6), start=1)]
        reactant = make_topology(chain, [(i, i + 1) for i in range(1, 7)], masses)
        ends = [
            make_topology([(1, a, 0.0), (2, b, 0.0), (3, c, 0.0)], [(1, 2), (2, 3)], masses)
            for a, b, c in ((4, 5, 6), (1, 2, 3))
        ]
        g_reac = build_unified_graph([reactant], "reactant")
        g_prod = build_unified_graph(ends, "product")
        mapping = iterate_conserved(g_reac, g_prod)
        first = sorted(
            (r, p) for r, p in mapping.pairs.items() if mapping.provenance[r] == "conserved-1"
        )
        assert first == [(1, 4), (2, 5), (3, 6)]
        self.assert_same_as_full_searches(g_reac, g_prod)

    def test_cut_searches_are_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="templater"):
            iterate_conserved(*alkene_dimerization(7, random.Random(0)))
        assert (
            "iteration 1, molecules 2 -> 1: 0 pairs, 0 expansions, cut by the incumbent "
            "(bound 16, incumbent 16 pairs from molecules 1 -> 1)"
        ) in caplog.text
        # The last iteration finds nothing and has no incumbent to cut by.
        assert caplog.messages[-3:] == [
            "conserved search: iteration 3, molecules 1 -> 1: 0 pairs, 0 expansions",
            "conserved search: iteration 3, molecules 2 -> 1: 0 pairs, 0 expansions",
            "conserved stage: 2 candidates, 6 searches, 1 cut by the incumbent",
        ]

    def test_only_searches_that_could_reach_two_pairs_are_cut(self, caplog):
        # Octane on both sides of polyaddition: most searches pair molecules
        # with no bond to keep in common, and the incumbent cut none of them.
        from templater.cli import RunConfig, run_stages

        reactants, products = CASE_STUDIES["polyaddition"]
        spectator = fixture_path("octane.data")
        with caplog.at_level(logging.INFO, logger="templater"):
            run_stages(RunConfig(reactants + [spectator], products + [spectator]))
        cut = [m for m in caplog.messages if "cut by the incumbent (" in m]
        assert len(cut) == 2
        assert all("molecules 2 -> 1" in m and "(bound 14," in m for m in cut)
        assert "bound 0" not in caplog.text
        assert "conserved stage: 3 candidates, 24 searches, 2 cut by the incumbent" in (
            caplog.messages
        )


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
