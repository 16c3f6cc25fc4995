import json
import os
import random
import time

import numpy as np
import pytest

import chemfix
from conftest import CASE_STUDIES, make_graph, make_topology, path_topology, ring_opening
from templater.cli import RunConfig, run_pipeline
from templater.conserved_mapping import AtomMapping
from templater.errors import InconsistentPruning
from templater.graph_core import build_unified_graph
from templater.lammps_io import (
    INTERACTION_SECTIONS,
    parse_data_file,
    parse_molecule_template,
    write_molecule_template,
)
from templater.reaction_analysis import ReactionReport, build_report
from templater.similarity_assignment import assign_similarity
from templater.template_builder import (
    DEFAULT_CUTOFF,
    assemble_templates,
    carry_features,
    mark_edge_atoms,
    prune_reaction,
    prune_to_cutoff,
    reaction_site_nodes,
)
from test_lammps_io import load_perfbench, load_workloads
from test_similarity_assignment import RING_OPENINGS

C = 12.011
MASSES = {1: C, 2: 15.999, 3: 1.008}


class TestPruneToCutoff:
    def test_path_end_cutoff_four(self):
        graph = build_unified_graph([path_topology(10)], "reactant")
        assert prune_to_cutoff(graph, {1}, 4) == {1, 2, 3, 4, 5}

    def test_always_include_forces_membership(self):
        graph = build_unified_graph([path_topology(10)], "reactant")
        kept = prune_to_cutoff(graph, {1}, 2, always_include={9})
        assert kept == {1, 2, 3, 9}

    def test_monotone_in_cutoff(self):
        graph = build_unified_graph([path_topology(10)], "reactant")
        previous = set()
        for cutoff in range(1, 10):
            current = prune_to_cutoff(graph, {3}, cutoff)
            assert previous <= current
            previous = current

    def test_sites_in_two_molecules_match_hop_distance(self):
        # A branched chain and a ring in one graph, sites in both; the
        # reference is Floyd-Warshall hop distance over every bond.
        branched = make_topology(
            [(i, 1, 0.0) for i in range(1, 9)],
            [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8)],
            {1: C},
        )
        ring = make_topology(
            [(i, 1, 0.0) for i in range(1, 8)],
            [(i, i % 7 + 1) for i in range(1, 8)],
            {1: C},
        )
        graph = build_unified_graph([branched, ring], "reactant")
        nodes = graph.sorted_gids()
        far = len(nodes)
        dist = {(a, b): 0 if a == b else far for a in nodes for b in nodes}
        for a in nodes:
            for b in graph.neighbors(a):
                dist[a, b] = 1
        for k in nodes:
            for a in nodes:
                for b in nodes:
                    dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
        site_sets = [
            {graph.gid_for(1, 3), graph.gid_for(2, 1)},
            {graph.gid_for(1, 1), graph.gid_for(1, 8), graph.gid_for(2, 5)},
        ]
        for sites in site_sets:
            for cutoff in range(1, 6):
                expected = {n for n in nodes if min(dist[s, n] for s in sites) <= cutoff}
                assert prune_to_cutoff(graph, sites, cutoff) == expected

    def test_requires_sites(self):
        graph = build_unified_graph([path_topology(3)], "reactant")
        with pytest.raises(ValueError):
            prune_to_cutoff(graph, set(), 4)

    def test_huge_cutoff_stops_where_the_molecules_end(self, case_states):
        # The search used to run every level up to the cutoff after the
        # sites' molecules were used up: about 1 s a call at 10**7 here.
        state = case_states["polycondensation"]
        graph = state.g_reac
        sites = reaction_site_nodes(state.report)
        forced = set(state.report.deleted)
        whole = forced.union(*(graph.components[graph.nodes[s].component] for s in sites))
        assert prune_to_cutoff(graph, sites, 10**3, forced) == whole
        start = time.perf_counter()
        assert prune_to_cutoff(graph, sites, 10**8, forced) == whole
        assert time.perf_counter() - start < 2

    def test_matches_union_of_shells(self, case_states):
        # The reference is every site's shells up to the cutoff, read off
        # ``graph.shells``: on random graphs (some disconnected), both sides
        # of the case studies (at their reaction sites too) and the ring
        # openings, with random site sets and forced inclusions.
        rng = random.Random(17)
        graphs = []
        for _ in range(60):
            n = rng.randint(1, 16)
            bonds = [
                (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.18
            ]
            graphs.append(make_graph([(i, 1, 0.0) for i in range(1, n + 1)], bonds, {1: C}))
        for state in case_states.values():
            graphs += [state.g_reac, state.g_prod]
        for tail in (1, 4, 12):
            graphs += ring_opening(tail, random.Random(tail))
        cases = []
        for graph in graphs:
            nodes = graph.sorted_gids()
            for k in (1, 2, 5):
                sites = set(rng.sample(nodes, min(k, len(nodes))))
                forced = set(rng.sample(nodes, min(rng.randint(0, 2), len(nodes))))
                cases.append((graph, sites, forced))
        for state in case_states.values():
            sites = reaction_site_nodes(state.report)
            cases.append((state.g_reac, sites, set()))
            cases.append((state.g_prod, {state.mapping.pairs[r] for r in sites}, set()))
        for graph, sites, forced in cases:
            for cutoff in range(1, 7):
                expected = set(forced)
                for site in sites:
                    for shell in graph.shells(site)[: cutoff + 1]:
                        expected.update(shell)
                assert prune_to_cutoff(graph, sites, cutoff, forced) == expected


class TestMarkEdgeAtoms:
    def test_whole_molecule_no_edges(self):
        graph = build_unified_graph([path_topology(4)], "reactant")
        assert mark_edge_atoms(set(graph.nodes), graph) == set()

    def test_path_boundary(self):
        graph = build_unified_graph([path_topology(10)], "reactant")
        pruned = {1, 2, 3, 4, 5}
        assert mark_edge_atoms(pruned, graph) == {5}


def carry(sections, index, changed=(), refusal=""):
    """``carry_features`` on {section name: [(type, members)]} rows of one
    file, a {source id: template index} map and a set of changed source
    ids, as Python values."""
    ids = sorted(
        {i for rows in sections.values() for _, members in rows for i in members} | set(index)
    )
    source_ids = np.array(ids, dtype=np.int64)
    return carry_features(
        {
            name: np.array(
                [(type_id, *members) for type_id, members in rows], dtype=np.int64
            ).reshape(-1, 1 + INTERACTION_SECTIONS[name][2])
            for name, rows in sections.items()
        },
        source_ids,
        np.array([index.get(i, 0) for i in ids], dtype=np.int64),
        np.isin(source_ids, list(changed)),
        refusal,
    )


class TestCarryFeatures:
    def test_full_molecule_keeps_everything(self):
        interactions = [(1, (1, 2)), (2, (2, 3))]
        index = {1: 1, 2: 2, 3: 3}
        assert carry({"Bonds": interactions}, index) == {"Bonds": interactions}

    def test_partial_atom_drops_interaction(self):
        interactions = [(1, (1, 2, 3)), (2, (2, 3, 4))]
        index = {1: 1, 2: 2, 3: 3}
        assert carry({"Angles": interactions}, index) == {"Angles": [(1, (1, 2, 3))]}

    def test_renumbering(self):
        interactions = [(7, (4, 6))]
        index = {4: 1, 6: 2}
        assert carry({"Bonds": interactions}, index) == {"Bonds": [(7, (1, 2))]}

    def test_sections_of_each_arity_together(self):
        # Atom 5 is left out: each section keeps its rows without it, in
        # file order, and an empty section stays empty.
        sections = {
            "Bonds": [(1, (1, 2)), (2, (4, 5)), (3, (3, 4))],
            "Angles": [(1, (1, 2, 3)), (2, (3, 4, 5))],
            "Dihedrals": [(4, (5, 1, 2, 3)), (5, (1, 2, 3, 4))],
            "Impropers": [],
        }
        index = {1: 1, 2: 2, 3: 3, 4: 4}
        assert carry(sections, index) == {
            "Bonds": [(1, (1, 2)), (3, (3, 4))],
            "Angles": [(1, (1, 2, 3))],
            "Dihedrals": [(5, (1, 2, 3, 4))],
            "Impropers": [],
        }
        assert carry({"Impropers": []}, index) == {"Impropers": []}

    def test_dropped_interaction_of_a_changed_atom_refused(self):
        # Dropping (2, 3) is fine; (3, 4, 2) holds the changed atoms 2 and 4.
        bonds = [(1, (1, 2)), (2, (2, 3))]
        index = {1: 1, 2: 2}
        assert carry({"Bonds": bonds}, index, {1}, "{} atom {}") == {"Bonds": [(1, (1, 2))]}
        with pytest.raises(InconsistentPruning, match=r"^Angles atom 2$"):
            carry({"Angles": [(3, (3, 4, 2))]}, index, {2, 4}, "{} atom {}")
        with pytest.raises(InconsistentPruning, match=r"^Bonds atom 2$"):
            carry({"Bonds": bonds}, index, {2, 4}, "{} atom {}")
        # The first section with a refused row is named, and its first such
        # row: atom 4 is changed and left out, atom 1 is changed and kept.
        sections = {
            "Bonds": [(1, (1, 2))],
            "Angles": [(1, (1, 2, 3)), (1, (2, 3, 4))],
            "Dihedrals": [(1, (4, 1, 2, 3))],
        }
        with pytest.raises(InconsistentPruning, match=r"^Angles atom 4$"):
            carry(sections, {1: 1, 2: 2, 3: 3}, {1, 4}, "{} atom {}")
        with pytest.raises(InconsistentPruning, match=r"^Dihedrals atom 1$"):
            carry(sections, {1: 1, 2: 2, 3: 3}, {1}, "{} atom {}")

    def test_member_outside_the_file_drops_interaction(self):
        # An unvalidated row may name an atom its file lacks: the row is
        # left out, as one holding an atom outside the template.
        rows = np.array([[1, 1, 2], [1, 2, 9], [1, 0, 1]], dtype=np.int64)
        source_ids = np.array([1, 2, 5], dtype=np.int64)
        local = np.array([1, 2, 3], dtype=np.int64)
        carried = carry_features({"Bonds": rows}, source_ids, local, np.zeros(3, bool))
        assert carried == {"Bonds": [(1, (1, 2))]}
        # 9 falls beside atom 5 in the lookup, which is changed; 9 itself
        # is not, so nothing is refused.
        changed = np.array([False, False, True])
        carried = carry_features({"Bonds": rows[1:]}, source_ids, local, changed, "{} atom {}")
        assert carried == {"Bonds": []}


def small_reaction(reverse_rows=False):
    """A-B + C-D -> A-B-C-D with one new bond between B and C; with
    ``reverse_rows`` each file lists its atoms in reverse id order."""
    order = reversed if reverse_rows else list
    ab = make_topology(order([(1, 1, 0.1), (2, 1, -0.1)]), [(1, 2)], MASSES)
    cd = make_topology(order([(1, 2, 0.2), (2, 2, -0.2)]), [(1, 2)], MASSES)
    product = make_topology(
        order([(1, 1, 0.1), (2, 1, -0.1), (3, 2, 0.2), (4, 2, -0.2)]),
        [(1, 2), (2, 3), (3, 4)],
        MASSES,
    )
    g_reac = build_unified_graph([ab, cd], "reactant")
    g_prod = build_unified_graph([product], "product")
    mapping = AtomMapping(g_reac, g_prod)
    for r, p in ((1, 1), (2, 2), (3, 3), (4, 4)):
        mapping.add(r, p, "conserved-1")
    report = build_report(mapping)
    return g_reac, g_prod, mapping, report


class TestAssembleTemplates:
    def test_atoms_listed_out_of_id_order(self):
        # Each data file lists its atoms in reverse id order: every template
        # atom still takes the type, charge and coordinates of its own row.
        g_reac, g_prod, mapping, report = small_reaction(reverse_rows=True)
        pre_set, post_set = prune_reaction(report, cutoff=4)
        templates = assemble_templates(report, pre_set, post_set)
        assert templates.pre.atom_count == templates.post.atom_count == 4
        sides = (
            (templates.pre, templates.pre_index_of, g_reac),
            (templates.post, templates.post_index_of, g_prod),
        )
        for template, index_of, graph in sides:
            for gid, i in index_of.items():
                node, atom = graph.nodes[gid], template.atoms[i - 1]
                # make_topology puts each atom at x = its id.
                assert (atom.type_id, atom.charge, atom.x) == (
                    node.type_id, node.charge, float(node.source_id)
                )
        in_order = small_reaction()[3]
        assert templates == assemble_templates(in_order, *prune_reaction(in_order, cutoff=4))

    def test_small_reaction_round_trip(self):
        g_reac, g_prod, mapping, report = small_reaction()
        pre_set, post_set = prune_reaction(report, cutoff=4)
        templates = assemble_templates(report, pre_set, post_set)
        assert templates.pre.atom_count == 4
        assert templates.post.atom_count == 4
        assert templates.equivalences == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert templates.initiators == (2, 3)
        text = write_molecule_template(templates.pre)
        assert parse_molecule_template(text) == templates.pre
        map_file = templates.to_map_file()
        map_file.validate()

    def test_charges_and_coordinates_copied_verbatim(self):
        g_reac, g_prod, mapping, report = small_reaction()
        pre_set, post_set = prune_reaction(report, cutoff=4)
        templates = assemble_templates(report, pre_set, post_set)
        assert [a.charge for a in templates.pre.atoms] == [0.1, -0.1, 0.2, -0.2]
        assert templates.pre.atoms[0].x == 1.0

    def test_inconsistent_pruning_detected(self):
        g_reac, g_prod, mapping, report = small_reaction()
        with pytest.raises(InconsistentPruning):
            assemble_templates(report, {1, 2}, {1, 2, 3, 4})

    def test_splice_consistency_property(self, case_states):
        for state in case_states.values():
            templates = state.templates
            pre_gids = set(templates.pre_index_of)
            post_gids = set(templates.post_index_of)
            mapped_image = {
                state.mapping.pairs[r] for r in pre_gids if r in state.mapping.pairs
            }
            created_gids = {g for g in state.report.created}
            assert mapped_image | created_gids == post_gids

    def test_initiators_inside_template(self, case_states):
        for state in case_states.values():
            for gid in state.report.initiators:
                assert gid in state.templates.pre_index_of

    def test_interactions_inside_template(self, case_states):
        for state in case_states.values():
            for template in (state.templates.pre, state.templates.post):
                n = template.atom_count
                for _t, members in template.bonds + template.angles + template.dihedrals + template.impropers:
                    assert all(1 <= m <= n for m in members)

    def test_edge_atoms_have_outside_neighbor(self, case_states):
        for state in case_states.values():
            templates = state.templates
            pruned = set(templates.pre_index_of)
            reverse_index = {v: k for k, v in templates.pre_index_of.items()}
            for edge_idx in templates.edge_atoms:
                gid = reverse_index[edge_idx]
                assert any(n not in pruned for n in state.g_reac.neighbors(gid))

    def test_impropers_only_when_input_declares_them(self, case_states):
        chain = case_states["chain"]
        assert not chain.templates.pre.impropers
        polyaddition = case_states["polyaddition"]
        assert polyaddition.templates.pre.impropers


def topology_from_template(template, masses, keep):
    """Rebuild a SystemTopology from a template restricted to ``keep``.

    ``keep`` is a sorted list of template-local indices forming one
    molecule; atoms are renumbered 1..n in that order.
    """
    renumber = {old: new for new, old in enumerate(keep, start=1)}
    atoms = [
        (renumber[i], template.atoms[i - 1].type_id, template.atoms[i - 1].charge)
        for i in keep
    ]
    bonds = [
        (renumber[a], renumber[b])
        for _t, (a, b) in template.bonds
        if a in renumber and b in renumber
    ]
    return make_topology(atoms, bonds, masses), renumber


def template_components(template):
    adjacency = {i: set() for i in range(1, template.atom_count + 1)}
    for _t, (a, b) in template.bonds:
        adjacency[a].add(b)
        adjacency[b].add(a)
    remaining = set(adjacency)
    components = []
    while remaining:
        start = min(remaining)
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        remaining -= seen
        components.append(sorted(seen))
    return components


class TestPipelineOnEmittedTemplates:
    def test_rerun_reproduces_initiators_and_equivalences(self, case_states):
        from templater.cli import RunConfig, run_stages
        from templater.conserved_mapping import iterate_conserved
        from templater.lammps_io import parse_data_file
        from templater.reaction_analysis import build_report
        from templater.similarity_assignment import assign_similarity
        from conftest import CASE_STUDIES

        for name, state in case_states.items():
            masses = {}
            for path in CASE_STUDIES[name][0] + CASE_STUDIES[name][1]:
                with open(path) as handle:
                    masses.update(parse_data_file(handle.read()).masses)
            templates = state.templates

            reactant_topos = []
            pre_translate = {}  # (component position, new id) -> pre index
            for position, keep in enumerate(template_components(templates.pre), start=1):
                topology, renumber = topology_from_template(templates.pre, masses, keep)
                reactant_topos.append(topology)
                for old, new in renumber.items():
                    pre_translate[(position, new)] = old
            post_keep = list(range(1, templates.post.atom_count + 1))
            product_topo, _ = topology_from_template(templates.post, masses, post_keep)

            g_reac = build_unified_graph(reactant_topos, "reactant")
            g_prod = build_unified_graph([product_topo], "product")
            mapping = iterate_conserved(g_reac, g_prod)
            mapping, _ = assign_similarity(mapping)
            report = build_report(mapping)

            def to_pre_index(gid):
                node = g_reac.nodes[gid]
                return pre_translate[(node.component, node.source_id)]

            rerun_initiators = {to_pre_index(g) for g in report.initiators}
            assert rerun_initiators == set(templates.initiators), name

            rerun_equivalences = sorted(
                (to_pre_index(r), g_prod.nodes[p].source_id)
                for r, p in mapping.pairs.items()
            )
            assert rerun_equivalences == templates.equivalences, name


class TestCutoffMonotonicity:
    def test_template_grows_with_cutoff(self, case_states):
        from templater.cli import RunConfig, run_stages
        from conftest import CASE_STUDIES

        reactants, products = CASE_STUDIES["polycondensation"]
        sizes = []
        for cutoff in (3, 4, 5, 6):
            cfg = RunConfig(reactants=reactants, products=products, out_dir=".", cutoff=cutoff)
            state = run_stages(cfg)
            sizes.append(state.templates.pre.atom_count)
        assert sizes == sorted(sizes)


def read_sections(path):
    """Section name -> rows of tokens, for a written template or map file.

    Header lines (``23 atoms``) come before the first section and are
    skipped; comments are cut.
    """
    sections, rows = {}, None
    with open(path, encoding="ascii") as handle:
        for line in handle:
            tokens = line.split("#")[0].split()
            if tokens and tokens[0][0].isalpha():
                rows = sections.setdefault(" ".join(tokens), [])
            elif tokens and rows is not None:
                rows.append(tokens)
    return sections


def first_generated(directory):
    """(workload, instance) of the first seed-1 instance of each generated
    benchmark workload, its data files written under ``directory``."""
    workloads = load_workloads()
    return [
        (kind, workloads.generated(kind, 1, str(directory))[0])
        for kind in workloads.GENERATED
    ]


# The ``RING_OPENINGS`` shapes without their marks: tail 12 maps with
# (3, 3) bond edits, but its templates still hold every change.
RING_OPENING_SHAPES = [pytest.param(*shape.values, id=shape.id) for shape in RING_OPENINGS]


def ring_opening_files(directory, tail, radius):
    """``conftest.ring_opening`` in atom orders 0-2, written as data files
    under ``directory``: (order, reactant paths, product paths) each."""
    for order in range(3):
        g_reac, g_prod = ring_opening(tail, random.Random(order), radius)
        system = chemfix.topology_system(
            f"ring-opening-{order}", g_reac.topologies, g_prod.topologies
        )
        yield (order, *chemfix.write_system(system, str(directory)))


def changed_edge_atoms(out_dir):
    """Pre-template EdgeIDs that do not keep their type, charge and bonded
    partners through the Equivalences, read from the written files alone."""
    pre = read_sections(os.path.join(out_dir, "pre_template.mol"))
    post = read_sections(os.path.join(out_dir, "post_template.mol"))
    reaction_map = read_sections(os.path.join(out_dir, "reaction_map.txt"))
    to_post = {int(a): int(b) for a, b in reaction_map["Equivalences"]}

    def atoms(template):
        types = {int(i): int(t) for i, t in template["Types"]}
        return {int(i): (types[int(i)], float(q)) for i, q in template["Charges"]}

    def partners(template):
        bonded = {}
        for _, _, a, b in template.get("Bonds", []):
            bonded.setdefault(int(a), set()).add(int(b))
            bonded.setdefault(int(b), set()).add(int(a))
        return bonded

    atoms_pre, atoms_post = atoms(pre), atoms(post)
    bonded_pre, bonded_post = partners(pre), partners(post)
    changed = []
    for (edge,) in reaction_map.get("EdgeIDs", []):
        e = int(edge)
        image = to_post.get(e)
        if (
            image is None
            or atoms_pre[e] != atoms_post[image]
            or {to_post.get(n) for n in bonded_pre.get(e, ())} != bonded_post.get(image, set())
        ):
            changed.append(e)
    return changed


class TestEdgeAtomRule:
    """``fix bond/react`` forbids an edge atom whose bonds, type or charge
    change."""

    @pytest.mark.parametrize("cutoff", [4, 5, 6])
    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_case_studies_keep_edge_atoms(self, tmp_path, name, cutoff):
        reactants, products = CASE_STUDIES[name]
        run_pipeline(RunConfig(reactants, products, str(tmp_path), cutoff=cutoff))
        assert changed_edge_atoms(tmp_path) == []

    def test_generated_families_keep_edge_atoms(self, tmp_path):
        edges = 0
        for kind, instance in first_generated(tmp_path):
            out_dir = tmp_path / kind
            run_pipeline(RunConfig(instance.reactants, instance.products, str(out_dir)))
            assert changed_edge_atoms(out_dir) == [], kind
            edges += len(read_sections(out_dir / "reaction_map.txt").get("EdgeIDs", []))
        assert edges > 0

    @pytest.mark.parametrize("tail, radius", RING_OPENING_SHAPES)
    def test_ring_openings_keep_edge_atoms(self, tmp_path, tail, radius):
        for order, reactants, products in ring_opening_files(tmp_path, tail, radius):
            for cutoff in (4, 6):
                out_dir = tmp_path / f"out-{order}-{cutoff}"
                run_pipeline(RunConfig(reactants, products, str(out_dir), cutoff=cutoff))
                assert changed_edge_atoms(out_dir) == [], (order, cutoff)

    def test_oracle_flags_a_changed_edge_atom(self, tmp_path):
        # Listing the pre atom of BD atom 12, whose charge goes from 0.15
        # to 0.2, among the edge atoms of a valid template must be caught.
        reactants, products = CASE_STUDIES["polyaddition"]
        state = run_pipeline(RunConfig(reactants, products, str(tmp_path), cutoff=4))
        bd_12 = state.templates.pre_index_of[state.g_reac.gid_for(2, 12)]
        assert bd_12 not in state.templates.edge_atoms
        path = tmp_path / "reaction_map.txt"
        text = path.read_text()
        path.write_text(text.replace("\nEdgeIDs\n\n", f"\nEdgeIDs\n\n{bd_12}\n"))
        assert changed_edge_atoms(tmp_path) == [bd_12]

    def test_bond_change_on_the_edge(self):
        # B (molecule 1, atom 2) bonds to C and keeps its neighbour A outside.
        g_reac, g_prod, mapping, report = small_reaction()
        with pytest.raises(InconsistentPruning, match=r"^edge atom 1\.2 "):
            assemble_templates(report, {2, 3}, {2, 3})

    def test_deleted_atom_on_the_edge(self):
        # A is deleted and a new atom takes its place; a template of A alone
        # leaves A's bond to B outside.
        g_reac, g_prod, _, _ = small_reaction()
        mapping = AtomMapping(g_reac, g_prod)
        for r, p in ((2, 2), (3, 3), (4, 4)):
            mapping.add(r, p, "conserved-1")
        report = build_report(mapping)
        assert report.deleted == {1} and report.created == {1}
        with pytest.raises(InconsistentPruning, match=r"^edge atom 1\.1 "):
            assemble_templates(report, {1}, {1})


def read_topologies(paths):
    """The parsed data files of one reaction side, in molecule order."""
    topologies = []
    for path in paths:
        with open(path, encoding="ascii") as handle:
            topologies.append(parse_data_file(handle.read()))
    return topologies


def changed_atoms(payload, reactant_topologies, product_topologies):
    """The (molecule, atom id) references of the reactant atoms and of the
    product atoms that are deleted, created, or change their type, charge
    or bonds, from a ``report.json`` payload and the parsed data files."""

    def type_and_charge(topologies):
        return {
            (molecule, atom_id): (type_id, charge)
            for molecule, topology in enumerate(topologies, start=1)
            for atom_id, type_id, charge in zip(
                *(topology.atoms[c].tolist() for c in ("atom_id", "type_id", "charge"))
            )
        }

    def ref(node):
        return node["molecule"], node["atom"]

    before = type_and_charge(reactant_topologies)
    after = type_and_charge(product_topologies)
    pre = {ref(node) for node in payload["deleted"]}
    post = {ref(node) for node in payload["created"]}
    for pair in payload["mapping"]:
        r, p = ref(pair["reactant"]), ref(pair["product"])
        if pair["delta_e"] or before[r] != after[p]:
            pre.add(r)
            post.add(p)
    return pre, post


def rows_with_changed_atoms(state, reactants, products, out_dir):
    """Every interaction row of the data files that holds a changed atom,
    as (section, side, molecule, atom ids, whether the template holds it
    whole)."""
    with open(os.path.join(out_dir, "report.json"), encoding="ascii") as handle:
        payload = json.load(handle)
    reactant_topologies = read_topologies(reactants)
    product_topologies = read_topologies(products)
    changed = changed_atoms(payload, reactant_topologies, product_topologies)
    sides = (
        ("pre", reactant_topologies, state.g_reac, state.templates.pre_index_of),
        ("post", product_topologies, state.g_prod, state.templates.post_index_of),
    )
    rows = []
    for (side, topologies, graph, index), side_changed in zip(sides, changed):
        for molecule, topology in enumerate(topologies, start=1):
            for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
                for members in map(tuple, getattr(topology, keyword)[:, 1:].tolist()):
                    if any((molecule, a) in side_changed for a in members):
                        inside = all(graph.gid_for(molecule, a) in index for a in members)
                        rows.append((name, side, molecule, members, inside))
    return rows


class TestChangedInteractionsInside:
    """Every bond, angle, dihedral and improper that holds an atom which is
    deleted, created, or changes its type, charge or bonds lies entirely
    inside the pre and post templates."""

    @staticmethod
    def outside(reactants, products, out_dir, cutoff=DEFAULT_CUTOFF):
        state = run_pipeline(RunConfig(reactants, products, str(out_dir), cutoff=cutoff))
        rows = rows_with_changed_atoms(state, reactants, products, out_dir)
        assert rows
        return [row for row in rows if not row[-1]]

    @pytest.mark.parametrize("cutoff", [4, 6])
    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_case_studies(self, tmp_path, name, cutoff):
        reactants, products = CASE_STUDIES[name]
        assert self.outside(reactants, products, tmp_path, cutoff) == []

    def test_generated_families(self, tmp_path):
        for kind, instance in first_generated(tmp_path):
            assert self.outside(instance.reactants, instance.products, tmp_path / kind) == [], kind

    @pytest.mark.parametrize("tail, radius", RING_OPENING_SHAPES)
    def test_ring_openings(self, tmp_path, tail, radius):
        for order, reactants, products in ring_opening_files(tmp_path, tail, radius):
            for cutoff in (4, 6):
                out_dir = tmp_path / f"out-{order}-{cutoff}"
                assert self.outside(reactants, products, out_dir, cutoff) == [], (order, cutoff)

    def test_oracle_flags_a_row_left_outside(self, tmp_path):
        # With the first initiator taken out of the pre template, each of
        # its bonds holds a changed atom and leaves the template.
        reactants, products = CASE_STUDIES["chain"]
        state = run_pipeline(RunConfig(reactants, products, str(tmp_path)))
        initiator = state.g_reac.nodes[state.report.initiators[0]]
        del state.templates.pre_index_of[initiator.global_id]
        outside = [
            row[:3] for row in rows_with_changed_atoms(state, reactants, products, tmp_path)
            if not row[-1]
        ]
        degree = len(state.g_reac.neighbors(initiator.global_id))
        assert outside.count(("Bonds", "pre", initiator.component)) == degree


# The (broken, formed) bond edits of each reaction's minimal map.
EXPECTED_BOND_EDITS = {
    "polyaddition": (1, 2),
    "polycondensation": (3, 1),
    "chain": (0, 3),
    "alkene_dimer": (0, 3),
    "retyped_site": (0, 3),
    "ua_chain": (0, 1),
    "ring_opening": (2, 2),
}


def replayed_bond_edits(out_dir):
    """(broken, formed) bonds of replaying the written map file on the
    written pre template, read from the written files alone.

    DeleteIDs drop their atoms and every bond to them; the Equivalences
    carry every other pre atom and bond onto the post template, and the
    CreateIDs fill its remaining atoms.  A carried bond the post template
    lacks is broken, as is each dropped one; a post bond nothing carried is
    formed.
    """

    def read(name):
        with open(os.path.join(out_dir, name), encoding="ascii") as handle:
            return handle.read()

    pre = parse_molecule_template(read("pre_template.mol"))
    post = parse_molecule_template(read("post_template.mol"))
    checks = load_perfbench("checks")
    map_file = checks.parse_map_file(read("reaction_map.txt"), pre.atom_count, post.atom_count)
    to_post = dict(map_file.equivalences)
    deleted = set(map_file.delete_ids)
    assert sorted(to_post) == sorted(set(range(1, pre.atom_count + 1)) - deleted)
    assert sorted([*to_post.values(), *map_file.create_ids]) == list(
        range(1, post.atom_count + 1)
    )
    pre_bonds = {frozenset(members) for _, members in pre.bonds}
    post_bonds = {frozenset(members) for _, members in post.bonds}
    carried = {frozenset(map(to_post.get, bond)) for bond in pre_bonds if not bond & deleted}
    dropped = len(pre_bonds) - len(carried)
    return dropped + len(carried - post_bonds), len(post_bonds - carried)


class TestMapFileReplay:
    """Replaying the map file on the pre template breaks and forms exactly
    the bonds of the reaction's minimal map."""

    @pytest.mark.parametrize("cutoff", [4, 5, 6])
    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_case_studies(self, tmp_path, name, cutoff):
        reactants, products = CASE_STUDIES[name]
        run_pipeline(RunConfig(reactants, products, str(tmp_path), cutoff=cutoff))
        assert replayed_bond_edits(tmp_path) == EXPECTED_BOND_EDITS[name]

    @pytest.mark.parametrize("cutoff", [3, 4, 6])
    def test_generated_families(self, tmp_path, cutoff):
        for kind, instance in first_generated(tmp_path):
            out_dir = tmp_path / kind
            run_pipeline(RunConfig(instance.reactants, instance.products, str(out_dir), cutoff=cutoff))
            assert replayed_bond_edits(out_dir) == EXPECTED_BOND_EDITS[kind], kind

    @pytest.mark.parametrize("tail, radius", RING_OPENINGS)
    def test_ring_openings(self, tmp_path, tail, radius):
        for order, reactants, products in ring_opening_files(tmp_path, tail, radius):
            for cutoff in (4, 6):
                out_dir = tmp_path / f"out-{order}-{cutoff}"
                run_pipeline(RunConfig(reactants, products, str(out_dir), cutoff=cutoff))
                assert replayed_bond_edits(out_dir) == EXPECTED_BOND_EDITS["ring_opening"], (
                    order, cutoff,
                )
