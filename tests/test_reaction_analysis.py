import json
import random

import pytest

from conftest import CASE_STUDIES, alkene_dimerization, fixture_path, make_graph, make_topology, ua_dimerization
from templater.cli import RunConfig, run_pipeline
from templater.conserved_mapping import AtomMapping, iterate_conserved
from templater.errors import NoReactionDetected, UnsupportedReaction
from templater.graph_core import build_unified_graph, centrality_by_node
from templater.lammps_io import parse_data_file
from templater.reaction_analysis import (
    CENTRALITY_DELTA_DECIMALS,
    bond_delta,
    build_report,
    centrality_delta,
    report_to_dict,
    report_to_text,
    select_initiators,
)
from templater.similarity_assignment import assign_similarity

C = 12.011
MASSES = {1: C, 2: 15.999, 3: 1.008, 4: 14.007}


def identity_system(n=4):
    atoms = [(i, 1, 0.0) for i in range(1, n + 1)]
    bonds = [(i, i + 1) for i in range(1, n)]
    g_reac = make_graph(atoms, bonds, MASSES, "reactant")
    g_prod = make_graph(atoms, bonds, MASSES, "product")
    mapping = AtomMapping(g_reac, g_prod)
    for i in range(1, n + 1):
        mapping.add(i, i, "conserved-1")
    return g_reac, g_prod, mapping


def mirror_images(graph):
    """Pairs (atom, mirror image) of a head-to-head dimer whose heavy atoms
    form one unbranched chain: heavy atom k from one end mirrors heavy atom
    k from the other, and every hydrogen on one mirrors every hydrogen on
    the other."""
    heavy = {gid for gid, node in graph.nodes.items() if node.mass > 2.0}

    def heavy_neighbors(gid):
        return [x for x in graph.neighbors(gid) if x in heavy]

    chain = [min(gid for gid in heavy if len(heavy_neighbors(gid)) == 1)]
    while len(chain) < len(heavy):
        chain.append(next(x for x in heavy_neighbors(chain[-1]) if x not in chain[-2:]))
    pairs = []
    for a, b in zip(chain, reversed(chain)):
        pairs.append((a, b))
        hydrogens_a = [x for x in graph.neighbors(a) if x not in heavy]
        hydrogens_b = [x for x in graph.neighbors(b) if x not in heavy]
        pairs.extend((h, k) for h in hydrogens_a for k in hydrogens_b)
    return pairs


def methyl_coupling_system():
    """Two methyl-like fragments forming one C-C bond."""
    methyl = make_topology(
        [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0), (4, 3, 0.0)],
        [(1, 2), (1, 3), (1, 4)],
        MASSES,
    )
    ethane = make_topology(
        [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0), (4, 3, 0.0),
         (5, 1, 0.0), (6, 3, 0.0), (7, 3, 0.0), (8, 3, 0.0)],
        [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8), (1, 5)],
        MASSES,
    )
    g_reac = build_unified_graph([methyl, methyl], "reactant")
    g_prod = build_unified_graph([ethane], "product")
    mapping = iterate_conserved(g_reac, g_prod)
    mapping, _ = assign_similarity(mapping)
    return g_reac, g_prod, mapping


class TestBondDelta:
    def test_conserved_interior_empty(self):
        g_reac, g_prod, mapping = identity_system()
        assert bond_delta((2, 2), mapping) == frozenset()

    def test_new_bond_detected(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        carbon_a, carbon_b = 1, 5
        delta_a = bond_delta((carbon_a, mapping.pairs[carbon_a]), mapping)
        assert delta_a
        assert carbon_b in delta_a

    def test_lost_neighbor_detected(self):
        # A-B bond in the reactant, B deleted in the product.
        g_reac = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "reactant")
        g_prod = make_graph([(1, 1, 0.0)], [], MASSES, "product")
        mapping = AtomMapping(g_reac, g_prod)
        mapping.add(1, 1, "conserved-1")
        assert bond_delta((1, 1), mapping) == frozenset({2})

    def test_created_neighbor_counts_as_gain(self):
        g_reac = make_graph([(1, 1, 0.0)], [], MASSES, "reactant")
        g_prod = make_graph([(1, 1, 0.0), (2, 3, 0.0)], [(1, 2)], MASSES, "product")
        mapping = AtomMapping(g_reac, g_prod)
        mapping.add(1, 1, "conserved-1")
        assert bond_delta((1, 1), mapping) == frozenset({("created", 2)})


class TestCentralityDelta:
    def test_identity_reaction_zero(self):
        g_reac, g_prod, mapping = identity_system()
        for r, p in mapping.pairs.items():
            assert centrality_delta((r, p), g_reac, g_prod) == pytest.approx(0.0, abs=1e-9)

    def test_path_extension_changes_end(self):
        g_reac = make_graph([(i, 1, 0.0) for i in range(1, 4)], [(1, 2), (2, 3)], MASSES, "reactant")
        g_prod = make_graph([(i, 1, 0.0) for i in range(1, 5)], [(1, 2), (2, 3), (3, 4)], MASSES, "product")
        # closed-form: P3 end = 0.5; P4 node-3 entry of the Perron vector
        delta = centrality_delta((3, 3), g_reac, g_prod)
        assert delta > 0.0

    def test_leaf_swap_symmetric_zero(self):
        atoms = [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0)]
        bonds = [(1, 2), (1, 3)]
        g_reac = make_graph(atoms, bonds, MASSES, "reactant")
        g_prod = make_graph(atoms, bonds, MASSES, "product")
        assert centrality_delta((2, 3), g_reac, g_prod) == pytest.approx(0.0, abs=1e-9)


class TestCentralityTies:
    """Atoms that symmetry makes equal tie exactly after rounding, although
    their centralities differ in the last bits (in shuffled atom orders no
    mirror pair of the UA chain compares equal unrounded)."""

    @pytest.mark.parametrize("dimer", ["ua-192", "octane", "all-atom-shuffled"])
    def test_mirror_images_tie(self, dimer):
        if dimer == "ua-192":
            g_reac, g_prod = ua_dimerization(96, random.Random(3))
        elif dimer == "octane":
            with open(fixture_path("butene.data")) as handle:
                butene = parse_data_file(handle.read())
            with open(fixture_path("octane.data")) as handle:
                octane = parse_data_file(handle.read())
            g_reac = build_unified_graph([butene, butene], "reactant")
            g_prod = build_unified_graph([octane], "product")
        else:
            g_reac, g_prod = alkene_dimerization(20, random.Random(3))
        centrality = centrality_by_node(g_prod, 1)
        pairs = mirror_images(g_prod)
        assert len({a for a, _ in pairs}) == len(g_prod.nodes)
        for a, b in pairs:
            assert round(centrality[a], CENTRALITY_DELTA_DECIMALS) == round(
                centrality[b], CENTRALITY_DELTA_DECIMALS
            )
            for r in g_reac.nodes:
                assert centrality_delta((r, a), g_reac, g_prod) == centrality_delta(
                    (r, b), g_reac, g_prod
                )


class TestClassifyCreatedDeleted:
    def test_methyl_coupling_balanced(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        deleted, created = mapping.unmapped()
        assert created == set()
        assert deleted == set()

    def test_counts_follow_unmatched_sets(self):
        g_reac = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "reactant")
        g_prod = make_graph([(1, 1, 0.0), (2, 4, 0.0)], [(1, 2)], MASSES, "product")
        mapping = AtomMapping(g_reac, g_prod)
        mapping.add(1, 1, "conserved-1")
        deleted, created = mapping.unmapped()
        assert created == {2}
        assert deleted == {2}


class TestSelectInitiators:
    def test_methyl_coupling_endpoints(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        report = build_report(mapping)
        assert set(report.initiators) == {1, 5}

    def test_identity_raises_no_reaction(self):
        g_reac, g_prod, mapping = identity_system()
        with pytest.raises(NoReactionDetected):
            build_report(mapping)

    def test_intramolecular_rejected(self):
        # one molecule gaining an internal bond: 4-chain closing into a ring
        chain = make_topology([(i, 1, 0.0) for i in range(1, 5)], [(1, 2), (2, 3), (3, 4)], MASSES)
        ring = make_topology([(i, 1, 0.0) for i in range(1, 5)], [(1, 2), (2, 3), (3, 4), (4, 1)], MASSES)
        g_reac = build_unified_graph([chain], "reactant")
        g_prod = build_unified_graph([ring], "product")
        mapping = AtomMapping(g_reac, g_prod)
        for i in range(1, 5):
            mapping.add(i, i, "similarity")
        with pytest.raises(UnsupportedReaction):
            build_report(mapping)

    def test_initiators_have_nonzero_delta(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        report = build_report(mapping)
        for gid in report.initiators:
            assert report.bond_deltas[gid]

    def test_deterministic_tie_break_smallest_id(self):
        # both ends of each molecule change identically; smallest id wins
        a = make_topology([(1, 1, 0.0), (2, 1, 0.0)], [(1, 2)], MASSES)
        joined = make_topology(
            [(1, 1, 0.0), (2, 1, 0.0), (3, 1, 0.0), (4, 1, 0.0)],
            [(1, 2), (3, 4), (2, 3), (4, 1)],
            MASSES,
        )
        g_reac = build_unified_graph([a, a], "reactant")
        g_prod = build_unified_graph([joined], "product")
        mapping = AtomMapping(g_reac, g_prod)
        for r, p in ((1, 1), (2, 2), (3, 3), (4, 4)):
            mapping.add(r, p, "similarity")
        deltas = {r: bond_delta((r, mapping.pairs[r]), mapping) for r in mapping.pairs}
        centralities = {r: centrality_delta((r, mapping.pairs[r]), g_reac, g_prod) for r in mapping.pairs}
        initiators = select_initiators(deltas, centralities, mapping)
        assert initiators == (1, 3)


class TestReportSerialization:
    def test_text_and_json_forms(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        report = build_report(mapping)
        text = report_to_text(report_to_dict(report))
        assert "initiators:" in text
        assert "mapped pairs" in text
        payload = report_to_dict(report)
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["counts"]["mapped"] == len(mapping.pairs)
        assert len(decoded["initiators"]) == 2
        assert decoded["counts"]["reactant_nodes"] == 8

    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_text_renders_the_written_json(self, tmp_path, name):
        reactants, products = CASE_STUDIES[name]
        run_pipeline(RunConfig(reactants, products, str(tmp_path)))
        payload = json.loads((tmp_path / "report.json").read_text(encoding="ascii"))
        text = report_to_text(payload)
        assert text.encode("ascii") == (tmp_path / "report.txt").read_bytes()

    def test_report_carries_its_mapping(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        report = build_report(mapping)
        assert report.mapping is mapping
        assert report_to_dict(report)["counts"]["mapped"] == len(mapping.pairs)

    def test_conservation_identity(self):
        g_reac, g_prod, mapping = methyl_coupling_system()
        report = build_report(mapping)
        assert len(g_reac.nodes) - len(report.deleted) == len(mapping.pairs)
        assert len(g_prod.nodes) - len(report.created) == len(mapping.pairs)


class TestConservedNeighborhoodProperty:
    def test_fully_conserved_neighborhoods_have_empty_delta(self, case_states):
        for state in case_states.values():
            mapping = state.mapping
            for r_gid in mapping.pairs:
                if not mapping.is_conserved(r_gid):
                    continue
                neighborhood = state.g_reac.neighbors(r_gid)
                if all(mapping.is_conserved(n) for n in neighborhood):
                    image_degree = len(state.g_prod.neighbors(mapping.pairs[r_gid]))
                    if image_degree == len(neighborhood):
                        assert not state.report.bond_deltas[r_gid]
