"""Output checks applied to every measured pipeline run.

Each check reads what ``run_pipeline`` wrote to disk where it can, so a run
counts as correct only if its artifacts are: the mapping passes the
independent ``validate_mapping``, the map file parses back into a valid
``ReactionMapFile``, both templates round-trip through
``parse_molecule_template``, the created/deleted counts match the ground
truth, the case studies reproduce the values the acceptance suite pins, and
``report.json`` is byte-identical across repeats of the same input.
"""

from __future__ import annotations

import os

from templater.conserved_mapping import validate_mapping
from templater.lammps_io import (
    ReactionMapFile,
    parse_molecule_template,
    write_map_file,
    write_molecule_template,
)


class CheckFailed(Exception):
    """An output of the pipeline differs from what the benchmark expects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), encoding="ascii") as handle:
        return handle.read()


def parse_map_file(text: str, pre_atoms: int, post_atoms: int) -> ReactionMapFile:
    """Read a reaction map file back; atom counts come from the templates."""
    sections: dict[str, list[list[int]]] = {}
    current = None
    for line in text.split("\n")[1:]:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped[0].isalpha():
            current = stripped
            sections[current] = []
        elif current is not None:
            sections[current].append([int(v) for v in stripped.split()])

    def ids(name: str) -> list[int]:
        return [row[0] for row in sections.get(name, [])]

    initiators = ids("InitiatorIDs")
    _require(len(initiators) == 2, f"map file lists {len(initiators)} initiators")
    return ReactionMapFile(
        pre_atom_count=pre_atoms,
        post_atom_count=post_atoms,
        equivalences=[(row[0], row[1]) for row in sections.get("Equivalences", [])],
        initiators=(initiators[0], initiators[1]),
        edge_ids=ids("EdgeIDs"),
        delete_ids=ids("DeleteIDs"),
        create_ids=ids("CreateIDs"),
    )


def _round_trip(out_dir: str, name: str, title: str):
    text = _read(out_dir, name)
    template = parse_molecule_template(text)
    _require(write_molecule_template(template, title) == text, f"{name} does not round-trip")
    return template


def check_run(instance, state, out_dir: str, reports: dict[str, str]) -> None:
    """Raise CheckFailed (or the library's ValidationError) on a wrong output."""
    mapping, report = state.mapping, state.report
    validate_mapping(mapping, state.g_reac, state.g_prod)

    pre = _round_trip(out_dir, "pre_template.mol", "pre-reaction template")
    post = _round_trip(out_dir, "post_template.mol", "post-reaction template")
    map_text = _read(out_dir, "reaction_map.txt")
    map_file = parse_map_file(map_text, pre.atom_count, post.atom_count)
    map_file.validate()
    _require(write_map_file(map_file) == map_text, "reaction_map.txt does not round-trip")

    _require(len(report.created) == instance.created,
             f"{len(report.created)} created atoms, expected {instance.created}")
    _require(len(report.deleted) == instance.deleted,
             f"{len(report.deleted)} deleted atoms, expected {instance.deleted}")
    _require(sorted(map_file.create_ids) == sorted(state.templates.created)
             and len(map_file.delete_ids) == instance.deleted,
             "map file create/delete ids disagree with the report")

    pinned = instance.pinned
    if pinned:
        conserved = sum(1 for r in mapping.pairs if mapping.is_conserved(r))
        _require(conserved == pinned["conserved"], f"{conserved} conserved atoms")
        _require(pre.atom_count == pinned["pre_atoms"], f"pre template has {pre.atom_count} atoms")
        _require(post.atom_count == pinned["post_atoms"], f"post template has {post.atom_count} atoms")
        _require(len(state.g_prod.nodes) == pinned["product_nodes"], "product node count")
        deleted_masses = sorted(state.g_reac.nodes[g].mass for g in report.deleted)
        _require(deleted_masses == pinned["deleted_masses"], f"deleted masses {deleted_masses}")
        if "initiators" in pinned:
            found = sorted(
                [state.g_reac.nodes[g].component, state.g_reac.nodes[g].source_id]
                for g in report.initiators
            )
            _require(found == pinned["initiators"], f"initiators {found}")
        if "created_mass" in pinned:
            _require(all(state.g_prod.nodes[g].mass == pinned["created_mass"]
                         for g in report.created), "created atoms are not hydrogens")

    report_json = _read(out_dir, "report.json")
    first = reports.setdefault(instance.name, report_json)
    _require(report_json == first, "report.json differs from the first run of this input")
