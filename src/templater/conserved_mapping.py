"""Conserved-region detection between reactant and product graphs.

The largest attribute-preserving connected common subgraph is searched per
(reactant molecule, product molecule) pair on the still-unmapped remainder;
the single best candidate wins each iteration and its pairs enter the
mapping.  Two iterations cover conserved matter on both sides of a reaction
site that splits a molecule.

Matching criteria are mass and type only; charge never participates.  Ties
between equally large subgraphs resolve to the lexicographically smallest
sorted pair list, making results independent of search order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from templater.errors import NoCommonSubgraph, ValidationError
from templater.graph_core import UnifiedGraph
from templater.kernels import max_common_connected_subgraph

logger = logging.getLogger("templater")

DEFAULT_ITERATIONS = 2
DEFAULT_BUDGET = 10_000_000

CONSERVED = "conserved"
SIMILARITY = "similarity"
PATH_REFINED = "path-refined"
HYDROGEN_SWAPPED = "hydrogen-swapped"


def conserved_tag(iteration: int) -> str:
    return f"{CONSERVED}-{iteration}"


@dataclass
class AtomMapping:
    """Evolving injection from reactant global ids to product global ids."""

    pairs: dict[int, int] = field(default_factory=dict)
    reverse: dict[int, int] = field(default_factory=dict)
    provenance: dict[int, str] = field(default_factory=dict)
    unmapped_reactant: set[int] = field(default_factory=set)
    unmapped_product: set[int] = field(default_factory=set)
    search_expansions: int = 0

    def add(self, r_gid: int, p_gid: int, provenance: str) -> None:
        if r_gid in self.pairs or p_gid in self.reverse:
            raise ValidationError(
                f"pair ({r_gid}, {p_gid}) would break the injection property"
            )
        self.pairs[r_gid] = p_gid
        self.reverse[p_gid] = r_gid
        self.provenance[r_gid] = provenance

    def repair(self, r_gid: int, p_gid: int | None, provenance: str) -> None:
        """Point r_gid at a new image (or unmap it), keeping the injection."""
        old = self.pairs.pop(r_gid, None)
        if old is not None:
            del self.reverse[old]
        self.provenance.pop(r_gid, None)
        if p_gid is not None:
            self.add(r_gid, p_gid, provenance)

    def is_conserved(self, r_gid: int) -> bool:
        return self.provenance.get(r_gid, "").startswith(CONSERVED)

    def copy(self) -> "AtomMapping":
        return AtomMapping(
            pairs=dict(self.pairs),
            reverse=dict(self.reverse),
            provenance=dict(self.provenance),
            unmapped_reactant=set(self.unmapped_reactant),
            unmapped_product=set(self.unmapped_product),
            search_expansions=self.search_expansions,
        )

    def refresh_unmapped(self, g_reac: UnifiedGraph, g_prod: UnifiedGraph) -> None:
        self.unmapped_reactant = {g for g in g_reac.nodes if g not in self.pairs}
        self.unmapped_product = {g for g in g_prod.nodes if g not in self.reverse}

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs.items())


def _attribute_labels(
    g_r: UnifiedGraph, nodes_r: list[int], g_p: UnifiedGraph, nodes_p: list[int]
) -> tuple[list[int], list[int]]:
    codes: dict[tuple[float, int], int] = {}

    def code(mass: float, type_id: int) -> int:
        key = (mass, type_id)
        if key not in codes:
            codes[key] = len(codes)
        return codes[key]

    labels_r = [code(g_r.nodes[g].mass, g_r.nodes[g].type_id) for g in nodes_r]
    labels_p = [code(g_p.nodes[g].mass, g_p.nodes[g].type_id) for g in nodes_p]
    return labels_r, labels_p


def _adjacency_masks(graph: UnifiedGraph, nodes: list[int]) -> list[int]:
    index = {gid: i for i, gid in enumerate(nodes)}
    masks = [0] * len(nodes)
    for gid in nodes:
        mask = 0
        for nbr in graph.neighbors(gid):
            j = index.get(nbr)
            if j is not None:
                mask |= 1 << j
        masks[index[gid]] = mask
    return masks


def max_common_subgraph(
    g_r: UnifiedGraph,
    g_p: UnifiedGraph,
    include_r: set[int] | None = None,
    include_p: set[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    required_images: dict[int, set[int]] | None = None,
) -> tuple[list[tuple[int, int]], int]:
    """Best connected common induced subgraph between two node restrictions.

    Returns the matched (reactant gid, product gid) pairs plus the number of
    pair expansions spent.  Raises NoCommonSubgraph when no node pair agrees
    on mass and type.  ``required_images`` constrains individual reactant
    nodes to product nodes adjacent to all the given product gids; iteration
    uses it to keep edges toward already-mapped pairs preserved.
    """
    nodes_r = sorted(include_r) if include_r is not None else g_r.sorted_gids()
    nodes_p = sorted(include_p) if include_p is not None else g_p.sorted_gids()
    labels_r, labels_p = _attribute_labels(g_r, nodes_r, g_p, nodes_p)
    if not set(labels_r) & set(labels_p):
        raise NoCommonSubgraph("no node pair agrees on mass and type")
    masks_r = _adjacency_masks(g_r, nodes_r)
    masks_p = _adjacency_masks(g_p, nodes_p)
    allowed = None
    if required_images:
        full = (1 << len(nodes_p)) - 1
        allowed = [full] * len(nodes_r)
        for i, r_gid in enumerate(nodes_r):
            required = required_images.get(r_gid)
            if not required:
                continue
            mask = 0
            for j, p_gid in enumerate(nodes_p):
                if required <= set(g_p.neighbors(p_gid)):
                    mask |= 1 << j
            allowed[i] = mask
    pairs, expansions = max_common_connected_subgraph(
        labels_r, labels_p, masks_r, masks_p, budget, allowed
    )
    return [(nodes_r[i], nodes_p[j]) for i, j in pairs], expansions


def iterate_conserved(
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    iterations: int = DEFAULT_ITERATIONS,
    budget: int = DEFAULT_BUDGET,
) -> AtomMapping:
    """Accumulate conserved-region mappings over several search iterations.

    Each iteration searches every (reactant molecule, product molecule)
    pair restricted to unmapped nodes and accepts the single global best
    candidate; molecules are never mixed within one candidate.  An empty
    mapping is legal when nothing is conserved.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    mapping = AtomMapping()
    for iteration in range(1, iterations + 1):
        # Candidates must keep reactant edges toward already-mapped nodes
        # preserved, so accumulated conserved pairs stay edge-consistent.
        required: dict[int, set[int]] = {}
        for r_gid in g_reac.nodes:
            if r_gid in mapping.pairs:
                continue
            images = {
                mapping.pairs[u]
                for u in g_reac.neighbors(r_gid)
                if u in mapping.pairs
            }
            if images:
                required[r_gid] = images
        best: tuple[int, list[tuple[int, int]], tuple[int, int]] | None = None
        for rc in sorted(g_reac.components):
            rest_r = {g for g in g_reac.components[rc] if g not in mapping.pairs}
            if not rest_r:
                continue
            for pc in sorted(g_prod.components):
                rest_p = {g for g in g_prod.components[pc] if g not in mapping.reverse}
                if not rest_p:
                    continue
                try:
                    pairs, expansions = max_common_subgraph(
                        g_reac, g_prod, rest_r, rest_p, budget, required
                    )
                except NoCommonSubgraph:
                    continue
                mapping.search_expansions += expansions
                logger.info(
                    "conserved search: iteration %d, molecules %d -> %d: "
                    "%d pairs, %d expansions",
                    iteration, rc, pc, len(pairs), expansions,
                )
                if not pairs:
                    continue
                candidate = (-len(pairs), pairs, (rc, pc))
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            break
        for r_gid, p_gid in best[1]:
            mapping.add(r_gid, p_gid, conserved_tag(iteration))
    mapping.refresh_unmapped(g_reac, g_prod)
    return mapping


def validate_mapping(
    mapping: AtomMapping, g_reac: UnifiedGraph, g_prod: UnifiedGraph
) -> None:
    """Independent post-hoc check of the AtomMapping invariants.

    Verifies the injection property, attribute preservation on conserved
    pairs, and that reactant edges between conserved pairs survive in the
    product.  Deliberately separate from the search code.
    """
    images = list(mapping.pairs.values())
    if len(set(images)) != len(images):
        raise ValidationError("mapping is not injective")
    for r_gid, p_gid in mapping.pairs.items():
        if mapping.reverse.get(p_gid) != r_gid:
            raise ValidationError("reverse index out of sync")
        if mapping.is_conserved(r_gid):
            node_r = g_reac.nodes[r_gid]
            node_p = g_prod.nodes[p_gid]
            if node_r.mass != node_p.mass or node_r.type_id != node_p.type_id:
                raise ValidationError(
                    f"conserved pair ({r_gid}, {p_gid}) changes mass or type"
                )
    for a, b in g_reac.edges:
        if (
            mapping.is_conserved(a)
            and mapping.is_conserved(b)
            and not g_prod.has_edge(mapping.pairs[a], mapping.pairs[b])
        ):
            raise ValidationError(f"conserved edge ({a}, {b}) not preserved")
