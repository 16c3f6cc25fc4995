"""Conserved-region detection between reactant and product graphs.

The largest attribute-preserving connected common subgraph is searched per
(reactant molecule, product molecule) pair on the still-unmapped remainder.
Each iteration accepts the single best candidate that keeps a bond (two or
more pairs), and the stage stops when no search finds one; it ends, since
each candidate maps two or more atoms.  A spectator molecule and each arm
of a molecule cut in two take an iteration of their own.  The best
candidate so far is a floor for the later searches of its iteration (see
``iterate_conserved``).

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
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import cached_property

from templater.errors import ValidationError
from templater.graph_core import UnifiedGraph
from templater.kernels import max_common_connected_subgraph

logger = logging.getLogger("templater")

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
    spoiled = {label for label, mask in zip(labels, masks) if mask & (mask - 1)}
    spoiled.update(
        labels[mask.bit_length() - 1] for mask in masks if mask and not mask & (mask - 1)
    )
    members: dict[Hashable, int] = {}
    parents: dict[Hashable, int] = {}
    crowded = set()
    for node, label in enumerate(labels):
        if label in spoiled:
            continue
        mask = masks[node]
        if parents.get(label, 0) & mask:
            crowded.add(label)
        parents[label] = parents.get(label, 0) | mask
        members[label] = members.get(label, 0) | 1 << node
    return {label: (nodes, label in crowded) for label, nodes in members.items()}


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Side:
    """One side of a search: its nodes in gid order and their labels, with
    the neighbour masks among them and their leaf groups built on first use.

    The kernel only tests labels for equality, so (mass, type) is the label.
    """

    def __init__(self, graph: UnifiedGraph, nodes: list[int]):
        self.graph = graph
        self.nodes = nodes
        self.labels = [(atom.mass, atom.type_id) for atom in map(graph.nodes.__getitem__, nodes)]
        self.tally = Counter(self.labels)

    @cached_property
    def index(self) -> dict[int, int]:
        return {gid: i for i, gid in enumerate(self.nodes)}

    @cached_property
    def masks(self) -> list[int]:
        return [_neighbour_mask(self.graph, gid, self.index) for gid in self.nodes]

    @cached_property
    def groups(self) -> dict[Hashable, tuple[int, bool]]:
        return _leaf_groups(self.labels, self.masks)


def _may_keep_a_bond(side_r: _Side, side_p: _Side) -> bool:
    """False only when no common subgraph keeps a bond.  With one label in
    common, a kept bond joins two nodes of that label on each side."""
    common = side_r.tally.keys() & side_p.tally.keys()
    if len(common) != 1:
        return bool(common)
    for side in (side_r, side_p):
        members = {gid for gid, label in zip(side.nodes, side.labels) if label in common}
        if not any(nbr in members for gid in members for nbr in side.graph.neighbors(gid)):
            return False
    return True


def _count_bound(side_r: _Side, side_p: _Side) -> int:
    """The most pairs a search can find: per label, the smaller count."""
    tally_p = side_p.tally
    return sum(min(count, tally_p[label]) for label, count in side_r.tally.items())


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
    pair expansions spent.  A result has two or more pairs, or none: a
    single pair keeps no bond and is not returned; ``([], 0)`` when no node
    pair agrees on mass and type.  ``required_images`` constrains individual
    reactant nodes to product nodes adjacent to all the given product gids;
    ``iterate_conserved`` uses it to keep edges toward already-mapped pairs
    preserved.

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
    largest pair count, so the kernel's floor of 2 in weight is a floor of
    2 pairs.

    Ties: the kernel returns the smallest sorted skeleton pair list among
    those of maximum weight, and the leaves of each matched pair are paired
    in ascending id order.  The third condition keeps single leaves, such
    as a united-atom CH3 at a chain end, in the skeleton, where they split
    the kernel's classes.
    """
    nodes_r = sorted(include_r) if include_r is not None else g_r.sorted_gids()
    nodes_p = sorted(include_p) if include_p is not None else g_p.sorted_gids()
    return _search(_Side(g_r, nodes_r), _Side(g_p, nodes_p), budget, required_images, 2)


def _search(
    side_r: _Side,
    side_p: _Side,
    budget: int,
    required_images: dict[int, set[int]] | None,
    floor: int,
) -> tuple[list[tuple[int, int]], int]:
    """``max_common_subgraph`` between two sides already set up.

    Returns no pairs unless the best subgraph has at least ``floor``, 2 or
    more; the kernel takes it as a weight, since the largest weight is the
    largest pair count.
    """
    nodes_r, labels_r = side_r.nodes, side_r.labels
    nodes_p, labels_p = side_p.nodes, side_p.labels
    common = side_r.tally.keys() & side_p.tally.keys()
    masks_r, masks_p = side_r.masks, side_p.masks
    allowed = None
    if required_images:
        # A product node is adjacent to every required image exactly when
        # it lies in the intersection of their neighbourhoods.
        allowed = []
        for r_gid in nodes_r:
            row = (1 << len(nodes_p)) - 1
            for image in required_images.get(r_gid, ()):
                row &= _neighbour_mask(side_p.graph, image, side_p.index)
            allowed.append(row)
        common -= {
            label for r_gid, label in zip(nodes_r, labels_r) if required_images.get(r_gid)
        }
    # The reactant and product node masks of each folding label: a label
    # folds only where some node carries two or more of its leaves.
    groups_r = side_r.groups
    groups_p = side_p.groups
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
        *skeleton, budget, allowed, counts_r or None, counts_p or None, floor
    )
    matched = [(nodes_r[v], nodes_p[w]) for v, w in pairs]
    for members_r, members_p in folded:
        for v, w in pairs:
            matched.extend(
                (nodes_r[a], nodes_p[b])
                for a, b in zip(_bits(masks_r[v] & members_r), _bits(masks_p[w] & members_p))
            )
    return sorted(matched), expansions


def _molecule_side(
    graph: UnifiedGraph, component: int, taken: dict[int, int], whole: dict[int, _Side]
) -> _Side:
    """The nodes of one molecule not in ``taken``, as a search side; a
    molecule with none taken reuses its set-up from ``whole``."""
    gids = graph.components[component]
    rest = [gid for gid in gids if gid not in taken]
    if len(rest) < len(gids):
        return _Side(graph, rest)
    side = whole.get(component)
    if side is None:
        side = whole[component] = _Side(graph, rest)
    return side


def iterate_conserved(
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    budget: int = DEFAULT_BUDGET,
) -> AtomMapping:
    """Accumulate conserved-region mappings, one accepted candidate an iteration.

    Each iteration searches every (reactant molecule, product molecule) pair
    restricted to unmapped nodes and accepts the single global best
    candidate: the most pairs, ties to the smallest sorted pair list.  A
    candidate must keep a bond, so every search has a floor of 2 pairs (a
    lone atom pair is left to the similarity stage).  The stage stops after
    the first iteration in which no search reaches 2 pairs, which comes, as
    each accepted candidate maps 2 or more of the finitely many atoms.
    Molecules are never mixed within one candidate.  An empty mapping is
    legal when nothing is conserved.  The ``k``-th accepted candidate is
    tagged ``conserved-k``.

    The best candidate so far raises the floor for the later searches of
    its iteration, which leaves the accepted candidate exact.  Molecules are
    searched in order and each one's gids are all larger than the previous
    one's, so a later reactant molecule loses every tie and must find
    strictly more pairs; a search in the incumbent's own reactant molecule
    must find at least as many, and ties are compared here.  A search
    whose per-label count bound cannot reach the floor is not run, nor one
    whose sides have a single label in common and, on one side, no bond
    between two of its nodes, which a kept bond would need; the others
    pass the floor to the kernel, which cuts only search nodes that
    cannot reach it and otherwise returns what it would without one.

    Each molecule's set-up (labels, neighbour masks, leaf groups) is built
    once per call and reused while none of its nodes is mapped.
    """
    mapping = AtomMapping(g_reac, g_prod)
    whole_r: dict[int, _Side] = {}
    whole_p: dict[int, _Side] = {}
    searches = cut = accepted = 0
    while True:
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
        sides_p = {
            pc: _molecule_side(g_prod, pc, mapping.reverse, whole_p)
            for pc in sorted(g_prod.components)
        }
        # The incumbent: the best pairs so far and their molecules.
        best: list[tuple[int, int]] = []
        best_from = (0, 0)
        for rc in sorted(g_reac.components):
            side_r = _molecule_side(g_reac, rc, mapping.pairs, whole_r)
            for pc, side_p in sides_p.items():
                searches += 1
                floor = len(best) + (best_from[0] < rc) if best else 2
                bound = _count_bound(side_r, side_p)
                # Only a search that could reach 2 pairs alone is cut by the incumbent.
                reachable = bound >= 2 and _may_keep_a_bond(side_r, side_p)
                pairs, expansions = [], 0
                if reachable and bound >= floor:
                    pairs, expansions = _search(side_r, side_p, budget, required, floor)
                    mapping.search_expansions += expansions
                note = ""
                if best and reachable and not pairs:
                    cut += 1
                    note = (
                        f", cut by the incumbent (bound {bound}, incumbent {len(best)} "
                        f"pairs from molecules {best_from[0]} -> {best_from[1]})"
                    )
                logger.info(
                    "conserved search: iteration %d, molecules %d -> %d: "
                    "%d pairs, %d expansions%s",
                    accepted + 1, rc, pc, len(pairs), expansions, note,
                )
                if pairs and (not best or (-len(pairs), pairs) < (-len(best), best)):
                    best, best_from = pairs, (rc, pc)
        if not best:
            break
        accepted += 1
        tag = conserved_tag(accepted)
        for r_gid, p_gid in best:
            mapping.add(r_gid, p_gid, tag)
    logger.info(
        "conserved stage: %d candidates, %d searches, %d cut by the incumbent",
        accepted, searches, cut,
    )
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
