"""Reaction-site detection from a finished atom mapping.

Bond deltas compare each mapped node's reactant neighborhood against the
pullback of its product neighborhood; eigenvector-centrality deltas grade
how much a node's structural role shifts.  The initiator pair is the
highest combined scorer of each of the two reacting molecules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from templater.conserved_mapping import AtomMapping
from templater.errors import NoReactionDetected, UnsupportedReaction
from templater.graph_core import UnifiedGraph, centrality_by_node

# Token marking a product-side neighbor with no preimage (a created atom).
CREATED_MARK = "created"

# Decimal places kept of a centrality delta.  The eigensolver leaves atoms
# that symmetry makes equal up to about 5e-14 apart, also where they fall in
# different parts of a bipartite molecule, such as the two ends of an
# even-length chain: 4.9e-14 at most over shuffled chains of 2 to 1,536
# sites, and 9e-15 over the benchmark's molecules and the case studies
# (atoms of one class of colour refinement, whose exact centralities are
# equal; numpy 2.4 with OpenBLAS 0.3.31 on x86-64).  Rounding makes their
# deltas compare equal, so initiator ties go to the smallest id as documented.
CENTRALITY_DELTA_DECIMALS = 9


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
    return frozenset(pulled ^ set(mapping.g_reac.neighbors(r_gid)))


def centrality_delta(
    pair: tuple[int, int], g_reac: UnifiedGraph, g_prod: UnifiedGraph
) -> float:
    """Absolute change in per-molecule unit-norm eigenvector centrality.

    Rounded to ``CENTRALITY_DELTA_DECIMALS`` places.
    """
    r_gid, p_gid = pair
    c_r = centrality_by_node(g_reac, g_reac.nodes[r_gid].component)[r_gid]
    c_p = centrality_by_node(g_prod, g_prod.nodes[p_gid].component)[p_gid]
    return round(abs(c_p - c_r), CENTRALITY_DELTA_DECIMALS)


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
    """Compute all per-pair deltas, classify atoms and select initiators."""
    bond_deltas = {}
    centrality_deltas = {}
    for pair in mapping.sorted_pairs():
        bond_deltas[pair[0]] = bond_delta(pair, mapping)
        centrality_deltas[pair[0]] = centrality_delta(pair, mapping.g_reac, mapping.g_prod)
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
