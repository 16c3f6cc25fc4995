"""Conserved-region detection between reactant and product graphs.

The largest attribute-preserving connected common subgraph is searched per
(reactant molecule, product molecule) pair on the still-unmapped remainder;
the single best candidate wins each iteration and its pairs enter the
mapping.  Two iterations cover conserved matter on both sides of a reaction
site that splits a molecule.

Matching criteria are mass and type only; charge never participates.
Grouped leaves, such as the hydrogens of a CH2 or CH3, fold into counts on
their heavy atom, and the search runs on the remaining skeleton with each
pair weighted by the leaves it can match (see ``max_common_subgraph`` for
why the count stays exact).  Ties between equally large subgraphs resolve
to the lexicographically smallest sorted skeleton pair list, with the
leaves of each pair matched in ascending id order, making results
independent of search order.
"""

from __future__ import annotations

import logging
from collections.abc import Hashable
from dataclasses import dataclass, field

from templater.errors import ValidationError
from templater.graph_core import UnifiedGraph
from templater.kernels import max_common_connected_subgraph

logger = logging.getLogger("templater")

DEFAULT_ITERATIONS = 2
DEFAULT_BUDGET = 10_000_000

CONSERVED = "conserved"
ANCHORED = "anchored"
SIMILARITY = "similarity"


def conserved_tag(iteration: int) -> str:
    return f"{CONSERVED}-{iteration}"


@dataclass
class AtomMapping:
    """Evolving injection from ``g_reac`` global ids to ``g_prod`` global ids.

    The graphs take no part in ``==`` or ``repr``.
    """

    g_reac: UnifiedGraph = field(compare=False, repr=False)
    g_prod: UnifiedGraph = field(compare=False, repr=False)
    pairs: dict[int, int] = field(default_factory=dict)
    reverse: dict[int, int] = field(default_factory=dict)
    provenance: dict[int, str] = field(default_factory=dict)
    search_expansions: int = 0

    def add(self, r_gid: int, p_gid: int, provenance: str) -> None:
        if r_gid in self.pairs or p_gid in self.reverse:
            raise ValidationError(
                f"pair ({r_gid}, {p_gid}) would break the injection property"
            )
        self.pairs[r_gid] = p_gid
        self.reverse[p_gid] = r_gid
        self.provenance[r_gid] = provenance

    def is_conserved(self, r_gid: int) -> bool:
        return self.provenance.get(r_gid, "").startswith(CONSERVED)

    def copy(self) -> "AtomMapping":
        return AtomMapping(
            self.g_reac,
            self.g_prod,
            pairs=dict(self.pairs),
            reverse=dict(self.reverse),
            provenance=dict(self.provenance),
            search_expansions=self.search_expansions,
        )

    def unmapped(self) -> tuple[set[int], set[int]]:
        """(reactant nodes without an image, product nodes without a preimage)."""
        return (
            {g for g in self.g_reac.nodes if g not in self.pairs},
            {g for g in self.g_prod.nodes if g not in self.reverse},
        )

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs.items())


def _neighbour_mask(graph: UnifiedGraph, gid: int, index: dict[int, int]) -> int:
    """Bitmask of the neighbours of ``gid`` among the indexed nodes."""
    mask = 0
    for nbr in graph.neighbors(gid):
        j = index.get(nbr)
        if j is not None:
            mask |= 1 << j
    return mask


def _leaf_groups(
    labels: list[Hashable], masks: list[int]
) -> dict[Hashable, tuple[int, bool]]:
    """Each label that can fold on this side: the mask of its nodes, and
    whether some node carries two or more of them as leaves.

    A label can fold when each of its nodes that has a neighbour has
    exactly one, and that neighbour has at least two.  Equivalently, none
    of its nodes has two or more neighbours, and none is the only
    neighbour of a node; degrees come from the masks by popcount.
    """
    members: dict[Hashable, int] = {}
    parents: dict[Hashable, int] = {}
    crowded = set()
    spoiled = set()
    for node, (label, mask) in enumerate(zip(labels, masks)):
        if mask & (mask - 1):
            spoiled.add(label)
        elif mask:
            spoiled.add(labels[mask.bit_length() - 1])
        if parents.get(label, 0) & mask:
            crowded.add(label)
        parents[label] = parents.get(label, 0) | mask
        members[label] = members.get(label, 0) | 1 << node
    return {
        label: (nodes, label in crowded)
        for label, nodes in members.items()
        if label not in spoiled
    }


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    pair expansions spent; ``([], 0)`` when no node pair agrees on mass and
    type.  ``required_images`` constrains individual reactant nodes to
    product nodes adjacent to all the given product gids; iteration uses it
    to keep edges toward already-mapped pairs preserved.

    Grouped leaves, such as the hydrogens of a CH2 or CH3, fold into counts
    on their parent, and the kernel searches the remaining skeleton with
    each pair weighted by the leaves it can match.  A label folds in one
    search when, in the restricted node sets, on both sides:

    - every node of the label that has a neighbour has exactly one, and
      that neighbour has at least two;
    - no reactant node of the label has required images;
    - some node carries at least two leaves of the label.

    Folded nodes without a neighbour leave the skeleton too.  The folded
    result is exact.  In a connected mapping of two or more pairs a
    matched leaf's only neighbour is matched too, and its image is a
    neighbour of that neighbour's image with the leaf's label, so by the
    first condition a leaf of it.  Every such mapping is therefore a
    skeleton mapping S plus leaf pairs inside S's pairs, at most W(S) =
    sum over (v, w) in S of 1 + sum over labels of min(leaves of v, leaves
    of w) pairs, and pairing the leaves attains W(S).  The largest W is the
    largest pair count.  When it is 1 or less no mapping has two pairs, and
    the result is the smallest label-compatible allowed pair.

    Ties: the kernel returns the smallest sorted skeleton pair list among
    those of maximum weight, and the leaves of each matched pair are paired
    in ascending id order.  The third condition keeps single leaves, such
    as a united-atom CH3 at a chain end, in the skeleton, where they split
    the kernel's classes.
    """
    nodes_r = sorted(include_r) if include_r is not None else g_r.sorted_gids()
    nodes_p = sorted(include_p) if include_p is not None else g_p.sorted_gids()
    # The kernel only tests labels for equality, so (mass, type) is the label.
    labels_r = [(atom.mass, atom.type_id) for atom in map(g_r.nodes.__getitem__, nodes_r)]
    labels_p = [(atom.mass, atom.type_id) for atom in map(g_p.nodes.__getitem__, nodes_p)]
    common = set(labels_r) & set(labels_p)
    if not common:
        return [], 0
    index_r = {gid: i for i, gid in enumerate(nodes_r)}
    index_p = {gid: j for j, gid in enumerate(nodes_p)}
    masks_r = [_neighbour_mask(g_r, gid, index_r) for gid in nodes_r]
    masks_p = [_neighbour_mask(g_p, gid, index_p) for gid in nodes_p]
    allowed = None
    if required_images:
        # A product node is adjacent to every required image exactly when
        # it lies in the intersection of their neighbourhoods.
        allowed = []
        for r_gid in nodes_r:
            row = (1 << len(nodes_p)) - 1
            for image in required_images.get(r_gid, ()):
                row &= _neighbour_mask(g_p, image, index_p)
            allowed.append(row)
        common -= {
            label for r_gid, label in zip(nodes_r, labels_r) if required_images.get(r_gid)
        }
    # The reactant and product node masks of each folding label: a label
    # folds only where some node carries two or more of its leaves.
    groups_r = _leaf_groups(labels_r, masks_r)
    groups_p = _leaf_groups(labels_p, masks_p)
    folded = []
    for label in sorted(common & groups_r.keys() & groups_p.keys()):
        members_r, crowded_r = groups_r[label]
        members_p, crowded_p = groups_p[label]
        if crowded_r or crowded_p:
            folded.append((members_r, members_p))
    counts_r = [[(m & members_r).bit_count() for m in masks_r] for members_r, _ in folded]
    counts_p = [[(m & members_p).bit_count() for m in masks_p] for _, members_p in folded]
    skeleton = (labels_r, labels_p, masks_r, masks_p)
    if folded:
        # Folded nodes keep their indices but lose their edges, and take a
        # label the other side lacks, so the kernel never matches them: it
        # searches the skeleton without renumbering a node.
        gone_r = gone_p = 0
        for members_r, members_p in folded:
            gone_r |= members_r
            gone_p |= members_p
        skeleton = (
            [-1 if gone_r >> i & 1 else label for i, label in enumerate(labels_r)],
            [-2 if gone_p >> j & 1 else label for j, label in enumerate(labels_p)],
            [m & ~gone_r for m in masks_r],
            [m & ~gone_p for m in masks_p],
        )
    pairs, expansions = max_common_connected_subgraph(
        *skeleton, budget, allowed, counts_r or None, counts_p or None
    )
    # A weight of 1 or less: at most one pair, and it matches no leaf.
    if len(pairs) < 2 and not any(
        r[v] and p[w] for v, w in pairs for r, p in zip(counts_r, counts_p)
    ):
        # The smallest label-compatible allowed pair over every node.
        by_label: dict[Hashable, int] = {}
        for j, label in enumerate(labels_p):
            by_label[label] = by_label.get(label, 0) | 1 << j
        for i, label in enumerate(labels_r):
            row = by_label.get(label, 0) & (-1 if allowed is None else allowed[i])
            if row:
                return [(nodes_r[i], nodes_p[(row & -row).bit_length() - 1])], expansions
        return [], expansions
    matched = [(nodes_r[v], nodes_p[w]) for v, w in pairs]
    for members_r, members_p in folded:
        for v, w in pairs:
            matched.extend(
                (nodes_r[a], nodes_p[b])
                for a, b in zip(_bits(masks_r[v] & members_r), _bits(masks_p[w] & members_p))
            )
    return sorted(matched), expansions


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
    mapping = AtomMapping(g_reac, g_prod)
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
                pairs, expansions = max_common_subgraph(
                    g_reac, g_prod, rest_r, rest_p, budget, required
                )
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
