"""Pruning of full reaction graphs into minimal pre/post templates.

The template keeps the reaction site (initiators, every node mapped outside
the conserved regions, created and deleted atoms) plus its graph
neighborhood within a hop cutoff.  Interactions are copied from the input
data files, never re-derived, so templates cannot contain terms absent from
the user's force field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


# The member columns of a section row of each arity, padded to four by
# repeating the last member: a repeated member changes none of the tests
# in ``carry_features``, so the sections of one file are tested together.
_PADDED_MEMBERS = {arity: [*range(1, arity + 1)] + [arity] * (4 - arity) for arity in (2, 3, 4)}


def carry_features(
    sections: dict[str, np.ndarray],
    source_ids: np.ndarray,
    local: np.ndarray,
    changed: np.ndarray,
    refusal: str = "",
) -> dict[str, list[tuple[int, tuple[int, ...]]]]:
    """Keep the interactions whose atoms all lie in the template, renumbered.

    ``sections`` maps a section name to its rows, one (type, atom ids...)
    row each, all from one data file, and ``source_ids`` holds that file's
    atom ids in ascending order; ``local`` holds the template index of each
    of those atoms, 0 for one left out, and ``changed`` marks the changed
    ones.  Returns the kept rows of each section, in file order so the
    emitted sections mirror the data files.  A row left out that holds a
    changed atom raises ``InconsistentPruning`` with ``refusal`` formatted
    with the section name and the smallest changed atom id of the first
    such row, sections taken in order.
    """
    filled = {name: rows for name, rows in sections.items() if len(rows)}
    if not filled:
        return {name: [] for name in sections}
    members = np.concatenate(
        [rows[:, _PADDED_MEMBERS[rows.shape[1] - 1]] for rows in filled.values()]
    )
    rank = source_ids.searchsorted(members)
    present = source_ids.take(rank, mode="clip") == members
    index = np.where(present, local.take(rank, mode="clip"), 0)
    kept = index.all(axis=1)
    held = present & changed.take(rank, mode="clip")
    refused = held.any(axis=1) & ~kept
    if refused.any():
        row = refused.argmax()
        ends = np.cumsum([len(rows) for rows in filled.values()])
        name = list(filled)[ends.searchsorted(row, side="right")]
        raise InconsistentPruning(refusal.format(name, members[row][held[row]].min()))
    carried = {name: [] for name in sections}
    start = 0
    for name, rows in filled.items():
        stop = start + len(rows)
        keep = kept[start:stop]
        renumbered = index[start:stop][keep, : rows.shape[1] - 1]
        carried[name] = list(zip(rows[keep, 0].tolist(), zip(*renumbered.T.tolist())))
        start = stop
    return carried


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
    ordered = sorted(pruned)
    index = {gid: i for i, gid in enumerate(ordered, start=1)}
    # By global id: the template index (0 for an atom left out), and
    # whether the atom is changed.
    local = np.zeros(len(graph.nodes) + 1, np.int64)
    local[ordered] = np.arange(1, len(ordered) + 1)
    is_changed = np.zeros(len(graph.nodes) + 1, bool)
    is_changed[list(changed)] = True
    atoms = []
    sections: dict[str, list] = {keyword: [] for keyword, _, _ in INTERACTION_SECTIONS.values()}
    for component, topology in enumerate(graph.topologies, start=1):
        # A file's atoms take the global ids from ``first`` on in the order
        # of their source ids: rank r has global id first + r.
        ids = topology.atoms["atom_id"]
        by_rank = np.argsort(ids, kind="stable")
        first = graph.components[component][0]
        file_local = local[first : first + len(ids)]
        file_changed = is_changed[first : first + len(ids)]
        source_ids = ids[by_rank]
        inside = by_rank[file_local.nonzero()[0]]
        columns = (topology.atoms[name].take(inside).tolist() for name in TemplateAtom._fields)
        atoms.extend(map(TemplateAtom, *columns))
        refusal = (
            f"{{}} entry of changed atom {component}.{{}} leaves the {side} template, "
            "which fix bond/react forbids; raise the cutoff"
        )
        tables = {
            name: getattr(topology, keyword)
            for name, (keyword, _, _) in INTERACTION_SECTIONS.items()
        }
        carried = carry_features(tables, source_ids, file_local, file_changed, refusal)
        for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
            sections[keyword].extend(carried[name])
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
