"""Reaction-site detection from a finished atom mapping.

Bond deltas compare each mapped node's reactant neighborhood against the
pullback of its product neighborhood; eigenvector-centrality deltas grade
how much a node's structural role shifts.  The initiator pair is the
highest combined scorer of each of the two reacting molecules.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from templater import graph_core
from templater.conserved_mapping import AtomMapping
from templater.errors import NoReactionDetected, UnsupportedReaction
from templater.graph_core import UnifiedGraph

# Token marking a product-side neighbor with no preimage (a created atom).
CREATED_MARK = "created"

# Decimal places kept of a centrality delta.  The centrality solver, the
# same plain-Python elimination for trees and rings, leaves atoms that
# symmetry makes equal up to about 1e-14 apart, such as the two ends of a
# chain: 7.7e-15 at most over shuffled chains of 2 to 1,536 sites, and
# 1.7e-15 over the seed-1 benchmark molecules and the case studies (atoms
# of one class of colour refinement, whose exact centralities are equal).
# Rounding makes their deltas compare equal, so initiator ties go to the
# smallest id as documented.
CENTRALITY_DELTA_DECIMALS = 9

# The bond delta of every atom whose bonds did not change, shared: most
# atoms of a large molecule keep their bonds, and each empty frozenset
# would take its own 216 bytes (CPython 3.11).
_NO_BOND_CHANGE: frozenset = frozenset()


def bond_delta(pair: tuple[int, int], mapping: AtomMapping) -> frozenset:
    """Symmetric difference between reactant and pulled-back product neighbors.

    Product neighbors are translated through the inverse mapping; neighbors
    without a preimage count as gains and are tagged ``("created", gid)``.
    """
    r_gid, p_gid = pair
    pulled = set()
    for nbr in mapping.g_prod.neighbors(p_gid):
        pre = mapping.reverse.get(nbr)
        pulled.add(pre if pre is not None else (CREATED_MARK, nbr))
    pulled.symmetric_difference_update(mapping.g_reac.neighbors(r_gid))
    return frozenset(pulled) if pulled else _NO_BOND_CHANGE


def centrality_delta(c_r: float, c_p: float) -> float:
    """Absolute change between a reactant atom's per-molecule unit-norm
    eigenvector centrality ``c_r`` and its product image's ``c_p``.

    Rounded to ``CENTRALITY_DELTA_DECIMALS`` places.
    """
    return round(abs(c_p - c_r), CENTRALITY_DELTA_DECIMALS)


def _centrality(graph: UnifiedGraph, gid: int, solved: dict[int, float]) -> float:
    """The centrality of gid, solving its whole molecule into ``solved`` on
    first use.  The solver is looked up on ``graph_core`` at call time, so a
    wrapper set there sees every solve."""
    if gid not in solved:
        solved.update(graph_core.eigenvector_centrality(graph, graph.nodes[gid].component))
    return solved[gid]


def select_initiators(
    bond_deltas: dict[int, frozenset], centrality_deltas: dict[int, float], mapping: AtomMapping
) -> tuple[int, int]:
    """Pick one reactant-side initiator per reacting molecule.

    Candidates are mapped nodes with a nonempty bond delta.  Within each
    reacting molecule the winner maximizes ``|delta_E| + delta_C / max
    delta_C``, so bond rearrangement dominates and centrality breaks ties;
    remaining ties go to the smallest id.  ``delta_C`` arrives rounded to
    1e-9 (see ``centrality_delta``), so atoms that symmetry makes equal tie
    exactly and the smallest id decides.  Exactly two reacting molecules
    are supported.
    """
    by_component: dict[int, list[int]] = {}
    for r_gid in sorted(mapping.pairs):
        if bond_deltas.get(r_gid):
            by_component.setdefault(mapping.g_reac.nodes[r_gid].component, []).append(r_gid)
    if not by_component:
        raise NoReactionDetected("all bond deltas are empty")
    if len(by_component) != 2:
        raise UnsupportedReaction(
            f"reaction spans {len(by_component)} molecule(s); exactly 2 supported"
        )
    initiators = []
    for component in sorted(by_component):
        candidates = by_component[component]
        max_dc = max(centrality_deltas[r] for r in candidates)

        def combined(r_gid: int) -> float:
            scaled = centrality_deltas[r_gid] / max_dc if max_dc > 0 else 0.0
            return len(bond_deltas[r_gid]) + scaled

        initiators.append(min(candidates, key=lambda r: (-combined(r), r)))
    return initiators[0], initiators[1]


@dataclass
class ReactionReport:
    """Reaction-initiating atoms plus per-node change diagnostics of ``mapping``."""

    mapping: AtomMapping
    initiators: tuple[int, int]
    created: set[int]
    deleted: set[int]
    bond_deltas: dict[int, frozenset] = field(default_factory=dict)
    centrality_deltas: dict[int, float] = field(default_factory=dict)


def build_report(mapping: AtomMapping) -> ReactionReport:
    """Compute all per-pair deltas, classify atoms and select initiators.

    Each molecule's centrality is solved once and kept for this call only.
    """
    g_reac, g_prod = mapping.g_reac, mapping.g_prod
    solved_r: dict[int, float] = {}
    solved_p: dict[int, float] = {}
    bond_deltas = {}
    centrality_deltas = {}
    for r_gid, p_gid in mapping.sorted_pairs():
        bond_deltas[r_gid] = bond_delta((r_gid, p_gid), mapping)
        centrality_deltas[r_gid] = centrality_delta(
            _centrality(g_reac, r_gid, solved_r), _centrality(g_prod, p_gid, solved_p)
        )
    deleted, created = mapping.unmapped()
    initiators = select_initiators(bond_deltas, centrality_deltas, mapping)
    return ReactionReport(
        mapping=mapping,
        initiators=initiators,
        created=created,
        deleted=deleted,
        bond_deltas=bond_deltas,
        centrality_deltas=centrality_deltas,
    )


def _delta_token(token, g_reac: UnifiedGraph, g_prod: UnifiedGraph) -> str:
    if isinstance(token, tuple):
        node = g_prod.nodes[token[1]]
        return f"{CREATED_MARK}:{node.component}.{node.source_id}"
    node = g_reac.nodes[token]
    return f"{node.component}.{node.source_id}"


def _node_ref(graph: UnifiedGraph, gid: int) -> dict:
    node = graph.nodes[gid]
    return {"global_id": gid, "molecule": node.component, "atom": node.source_id}


def report_to_dict(report: ReactionReport) -> dict:
    """Machine-readable report; schema documented in the README."""
    mapping = report.mapping
    g_reac, g_prod = mapping.g_reac, mapping.g_prod
    pairs = []
    for r_gid, p_gid in mapping.sorted_pairs():
        pairs.append(
            {
                "reactant": _node_ref(g_reac, r_gid),
                "product": _node_ref(g_prod, p_gid),
                "provenance": mapping.provenance[r_gid],
                "delta_e": sorted(
                    _delta_token(t, g_reac, g_prod) for t in report.bond_deltas[r_gid]
                ),
                "delta_c": report.centrality_deltas[r_gid],
            }
        )
    return {
        "initiators": [_node_ref(g_reac, gid) for gid in report.initiators],
        "created": [_node_ref(g_prod, gid) for gid in sorted(report.created)],
        "deleted": [_node_ref(g_reac, gid) for gid in sorted(report.deleted)],
        "mapping": pairs,
        "counts": {
            "reactant_nodes": len(g_reac.nodes),
            "product_nodes": len(g_prod.nodes),
            "mapped": len(mapping.pairs),
            "conserved": sum(1 for r in mapping.pairs if mapping.is_conserved(r)),
            "created": len(report.created),
            "deleted": len(report.deleted),
        },
    }


def report_to_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a final newline,
    byte for byte: the pieces of ``report_json_pieces`` joined once.

    ``payload`` is a ``report_to_dict`` payload plus the ``templates`` and
    ``config`` sections of a run.
    """
    return "".join(report_json_pieces(payload))


def report_json_pieces(payload: dict) -> Iterator[str]:
    """The text of ``report_to_json``, in pieces: the sections before the
    mapping, each mapping row and the separator before it, then the rest.

    A run writes the pieces into its staged file as they come, so the text
    is never held whole.  Every key is written by name, in sorted order:
    ints through ``int.__repr__``, strings through ``encode_basestring_ascii``
    and floats through ``_number_json``.  The mapping rows, which hold most
    of the file, are one f-string each.
    """
    config, counts, templates = payload["config"], payload["counts"], payload["templates"]
    weights = _json_list([_number_json(w) for w in config["weights"]], "\n    ")
    edge_atoms = _json_list([int.__repr__(gid) for gid in templates["edge_atoms"]], "\n    ")
    created, deleted, initiators = (
        _json_list([_node_json(node) for node in payload[key]], "\n  ")
        for key in ("created", "deleted", "initiators")
    )
    yield (
        '{\n  "config": {'
        f'\n    "cost_normalization": {encode_basestring_ascii(config["cost_normalization"])},'
        f'\n    "cutoff": {int.__repr__(config["cutoff"])},'
        f'\n    "search_budget": {int.__repr__(config["search_budget"])},'
        f'\n    "search_expansions": {int.__repr__(config["search_expansions"])},'
        f'\n    "tie_break": {encode_basestring_ascii(config["tie_break"])},'
        f'\n    "weights": {weights}'
        '\n  },\n  "counts": {'
        f'\n    "conserved": {int.__repr__(counts["conserved"])},'
        f'\n    "created": {int.__repr__(counts["created"])},'
        f'\n    "deleted": {int.__repr__(counts["deleted"])},'
        f'\n    "mapped": {int.__repr__(counts["mapped"])},'
        f'\n    "product_nodes": {int.__repr__(counts["product_nodes"])},'
        f'\n    "reactant_nodes": {int.__repr__(counts["reactant_nodes"])}'
        f'\n  }},\n  "created": {created},'
        f'\n  "deleted": {deleted},'
        f'\n  "initiators": {initiators},'
        '\n  "mapping": ['
    )
    separator = "\n    "
    for row in payload["mapping"]:
        yield separator
        yield _row_json(row)
        separator = ",\n    "
    yield (
        ("\n  ]" if payload["mapping"] else "]")
        + ',\n  "templates": {'
        f'\n    "count_convention": {encode_basestring_ascii(templates["count_convention"])},'
        f'\n    "cutoff": {int.__repr__(templates["cutoff"])},'
        f'\n    "edge_atoms": {edge_atoms},'
        f'\n    "equivalences": {int.__repr__(templates["equivalences"])},'
        f'\n    "post_atoms": {int.__repr__(templates["post_atoms"])},'
        f'\n    "pre_atoms": {int.__repr__(templates["pre_atoms"])}'
        "\n  }\n}\n"
    )


def _json_list(items: list[str], newline: str) -> str:
    """A list of encoded ``items`` as ``json.dumps(indent=2)`` writes it on
    the line ``newline`` starts."""
    if not items:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


def _number_json(value: float) -> str:
    """A float as ``json.dumps`` writes it, ``NaN`` and the infinities
    included.  A weight given as an int stays one."""
    if isinstance(value, int):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _node_json(node: dict, newline: str = "\n    ") -> str:
    """A ``report_to_dict`` node reference on the line ``newline`` starts."""
    inner = newline + "  "
    return (
        f'{{{inner}"atom": {int.__repr__(node["atom"])},'
        f'{inner}"global_id": {int.__repr__(node["global_id"])},'
        f'{inner}"molecule": {int.__repr__(node["molecule"])}{newline}}}'
    )


def _row_json(row: dict) -> str:
    """A ``report_to_dict`` mapping row, an item of the top-level list."""
    row_line = "\n      "
    delta_e = _json_list([encode_basestring_ascii(t) for t in row["delta_e"]], row_line)
    return (
        f'{{{row_line}"delta_c": {_number_json(row["delta_c"])},'
        f'{row_line}"delta_e": {delta_e},'
        f'{row_line}"product": {_node_json(row["product"], row_line)},'
        f'{row_line}"provenance": {encode_basestring_ascii(row["provenance"])},'
        f'{row_line}"reactant": {_node_json(row["reactant"], row_line)}\n    }}'
    )


def report_to_text(payload: dict) -> str:
    """Human-readable one-page summary of a ``report_to_dict`` payload.

    Every reactant atom is mapped or deleted and every product atom mapped
    or created, so the payload's atom references name every molecule.
    """
    pairs = payload["mapping"]
    counts = payload["counts"]

    def refs(nodes) -> str:
        return ", ".join(f"{n['molecule']}.{n['atom']}" for n in nodes) or "none"

    def molecules(side: str, unmapped: str) -> int:
        nodes = [pair[side] for pair in pairs] + payload[unmapped]
        return len({n["molecule"] for n in nodes})

    lines = [
        "reaction analysis",
        "=================",
        f"reactant nodes : {counts['reactant_nodes']} in "
        f"{molecules('reactant', 'deleted')} molecule(s)",
        f"product nodes  : {counts['product_nodes']} in "
        f"{molecules('product', 'created')} molecule(s)",
        f"mapped pairs   : {counts['mapped']} ({counts['conserved']} conserved)",
        f"created atoms  : {refs(payload['created'])}",
        f"deleted atoms  : {refs(payload['deleted'])}",
        "",
        "initiators:",
    ]
    by_gid = {pair["reactant"]["global_id"]: pair for pair in pairs}
    for node in payload["initiators"]:
        pair = by_gid[node["global_id"]]
        lines.append(
            f"  molecule {node['molecule']} atom {node['atom']} "
            f"(|dE|={len(pair['delta_e'])}, dC={pair['delta_c']:.6f})"
        )
    changed = [pair for pair in pairs if pair["delta_e"]]
    lines.append("")
    lines.append(f"atoms with changed bonding: {len(changed)}")
    for pair in changed:
        node = pair["reactant"]
        tokens = ", ".join(pair["delta_e"])
        lines.append(f"  molecule {node['molecule']} atom {node['atom']}: {tokens}")
    return "\n".join(lines) + "\n"
