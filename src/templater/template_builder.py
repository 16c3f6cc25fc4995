"""Pruning of full reaction graphs into minimal pre/post templates.

The template keeps the reaction site (initiators, every node mapped outside
the conserved regions, created and deleted atoms) plus its graph
neighborhood within a hop cutoff.  Interactions are copied from the input
data files, never re-derived, so templates cannot contain terms absent from
the user's force field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from templater.errors import InconsistentPruning
from templater.graph_core import UnifiedGraph
from templater.lammps_io import (
    INTERACTION_SECTIONS,
    MoleculeTemplateFile,
    ReactionMapFile,
    TemplateAtom,
)
from templater.reaction_analysis import ReactionReport

DEFAULT_CUTOFF = 4


def prune_to_cutoff(
    graph: UnifiedGraph,
    sites: set[int],
    cutoff: int,
    always_include: frozenset[int] | set[int] = frozenset(),
) -> set[int]:
    """Nodes within ``cutoff`` hops of any site, plus forced inclusions.

    The union of ``graph.shells(*sites, limit=cutoff)``: one breadth-first
    search from all sites together, which stops at the cutoff or where the
    sites' molecules end, whichever comes first.
    """
    if not sites:
        raise ValueError("at least one site node is required")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return set(always_include).union(*graph.shells(*sites, limit=cutoff))


def mark_edge_atoms(pruned: set[int], graph: UnifiedGraph) -> set[int]:
    """Pruned nodes retaining at least one neighbor outside the template."""
    return {
        gid
        for gid in pruned
        if any(nbr not in pruned for nbr in graph.neighbors(gid))
    }


def carry_features(
    interactions: list[tuple[int, tuple[int, ...]]],
    local_index: dict[int, int],
    changed: set[int] | frozenset[int] = frozenset(),
    refusal: str = "",
) -> list[tuple[int, tuple[int, ...]]]:
    """Keep the interactions whose atoms all lie in ``local_index``, renumbered by it.

    Input order is preserved so the emitted sections mirror the data files.
    An interaction left out that holds an atom of ``changed`` raises
    ``InconsistentPruning`` with ``refusal`` formatted with the smallest such
    atom id.
    """
    kept = []
    for type_id, members in interactions:
        if all(map(local_index.__contains__, members)):
            kept.append((type_id, tuple(map(local_index.__getitem__, members))))
        elif not changed.isdisjoint(members):
            raise InconsistentPruning(refusal.format(min(filter(changed.__contains__, members))))
    return kept


@dataclass
class ReactionTemplates:
    """Pre/post molecule templates plus all map-file bookkeeping."""

    pre: MoleculeTemplateFile
    post: MoleculeTemplateFile
    equivalences: list[tuple[int, int]]
    edge_atoms: list[int]
    initiators: tuple[int, int]
    deleted: list[int]
    created: list[int]
    pre_index_of: dict[int, int] = field(default_factory=dict)
    post_index_of: dict[int, int] = field(default_factory=dict)

    def to_map_file(self) -> ReactionMapFile:
        return ReactionMapFile(
            pre_atom_count=self.pre.atom_count,
            post_atom_count=self.post.atom_count,
            equivalences=list(self.equivalences),
            initiators=self.initiators,
            edge_ids=list(self.edge_atoms),
            delete_ids=list(self.deleted),
            create_ids=list(self.created),
        )


def _side_template(
    graph: UnifiedGraph, pruned: set[int], changed: set[int], side: str
) -> tuple[MoleculeTemplateFile, dict[int, int]]:
    """One side's template, cut from the graph's data files, plus its global
    id to template-local index map.

    Atoms are numbered in global-id order.  Each interaction section holds
    the kept interactions of the first data file, then of the next, each in
    its file's order.  ``fix bond/react`` needs every interaction of a
    changed atom inside the template, so one left out raises
    ``InconsistentPruning`` naming the section, the ``side`` template and
    the atom as ``molecule.atom``.
    """
    index = {gid: i for i, gid in enumerate(sorted(pruned), start=1)}
    atoms = [None] * len(index)
    sections: dict[str, list] = {keyword: [] for keyword, _, _ in INTERACTION_SECTIONS.values()}
    for component, topology in enumerate(graph.topologies, start=1):
        local = {}
        changed_ids = set()
        for atom in topology.atoms:
            gid = graph.gid_for(component, atom.atom_id)
            i = index.get(gid)
            if i is not None:
                local[atom.atom_id] = i
                atoms[i - 1] = TemplateAtom(atom.type_id, atom.charge, atom.x, atom.y, atom.z)
            if gid in changed:
                changed_ids.add(atom.atom_id)
        for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
            refusal = (
                f"{name} entry of changed atom {component}.{{}} leaves the {side} template, "
                "which fix bond/react forbids; raise the cutoff"
            )
            sections[keyword].extend(
                carry_features(getattr(topology, keyword), local, changed_ids, refusal)
            )
    return MoleculeTemplateFile(atoms=atoms, **sections), index


def reaction_site_nodes(report: ReactionReport) -> set[int]:
    """Reactant-side nodes the cutoff is measured from.

    Everything mapped outside the conserved regions belongs to the reaction
    site, alongside the initiators.  Conserved pairs keep their type, so
    every atom whose type changes is a site.  Charge is never matched, so a
    conserved atom may change it; ``assemble_templates`` rejects a template
    that leaves such an atom on its edge.
    """
    mapping = report.mapping
    sites = {r for r in mapping.pairs if not mapping.is_conserved(r)}
    sites.update(report.initiators)
    return sites


def prune_reaction(
    report: ReactionReport, cutoff: int = DEFAULT_CUTOFF
) -> tuple[set[int], set[int]]:
    """Compute mutually consistent pre/post template node sets.

    Both sides are pruned around corresponding sites; atoms with changed
    bonding and the created/deleted sets are always kept.  The union closure
    through the mapping guarantees splice consistency.
    """
    mapping = report.mapping
    pre_sites = reaction_site_nodes(report)
    post_sites = {mapping.pairs[r] for r in pre_sites}
    changed = {r for r, delta in report.bond_deltas.items() if delta}
    pre_always = set(report.deleted) | changed
    post_always = set(report.created) | {mapping.pairs[r] for r in changed}

    pre_set = prune_to_cutoff(mapping.g_reac, pre_sites, cutoff, pre_always)
    post_set = prune_to_cutoff(mapping.g_prod, post_sites, cutoff, post_always)

    post_set |= {mapping.pairs[r] for r in pre_set if r in mapping.pairs}
    pre_set |= {mapping.reverse[p] for p in post_set if p in mapping.reverse}
    return pre_set, post_set


def assemble_templates(
    report: ReactionReport, pre_pruned: set[int], post_pruned: set[int]
) -> ReactionTemplates:
    """Renumber the pruned sets and assemble both templates plus the map.

    ``fix bond/react`` has two rules for the atoms that are deleted or
    created, or mapped with a new type, a new charge or a bond delta: (a) no
    such atom is an edge atom, and (b) every interaction that holds one lies
    inside both templates.  A break of (a) raises ``InconsistentPruning``
    naming the smallest such edge atom as ``molecule.atom``, before (b) is
    checked (see ``_side_template``).
    """
    mapping = report.mapping
    g_reac, g_prod = mapping.g_reac, mapping.g_prod
    image = {mapping.pairs[r] for r in pre_pruned if r in mapping.pairs}
    if image != post_pruned - set(report.created):
        raise InconsistentPruning(
            "mapped image of the pre template set differs from the post set"
        )
    if not set(report.deleted) <= pre_pruned or not set(report.created) <= post_pruned:
        raise InconsistentPruning("created/deleted atoms missing from the templates")

    changed_pre = set(report.deleted)
    for r_gid, p_gid in mapping.pairs.items():
        before, after = g_reac.nodes[r_gid], g_prod.nodes[p_gid]
        retyped = before.type_id != after.type_id or before.charge != after.charge
        if retyped or report.bond_deltas[r_gid]:
            changed_pre.add(r_gid)
    changed_post = set(report.created)
    changed_post.update(mapping.pairs[r_gid] for r_gid in changed_pre - report.deleted)

    edge_atoms = mark_edge_atoms(pre_pruned, g_reac)
    changed = edge_atoms & changed_pre
    if changed:
        node = g_reac.nodes[min(changed)]
        raise InconsistentPruning(
            f"edge atom {node.component}.{node.source_id} changes its bonds, type or "
            "charge, which fix bond/react forbids; raise the cutoff"
        )

    pre_template, pre_index = _side_template(g_reac, pre_pruned, changed_pre, "pre")
    post_template, post_index = _side_template(g_prod, post_pruned, changed_post, "post")

    equivalences = sorted(
        (pre_index[r], post_index[p])
        for r, p in mapping.pairs.items()
        if r in pre_pruned
    )
    return ReactionTemplates(
        pre=pre_template,
        post=post_template,
        equivalences=equivalences,
        edge_atoms=sorted(pre_index[g] for g in edge_atoms),
        initiators=(pre_index[report.initiators[0]], pre_index[report.initiators[1]]),
        deleted=sorted(pre_index[g] for g in report.deleted),
        created=sorted(post_index[g] for g in report.created),
        pre_index_of=pre_index,
        post_index_of=post_index,
    )
