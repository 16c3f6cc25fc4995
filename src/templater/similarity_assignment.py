"""Similarity scoring, optimal assignment and the two repair passes.

Unmapped node pairs are scored by a depth-weighted sum of root attribute
agreement and neighbor-shell overlap, turned into a normalized cost matrix
and matched by linear sum assignment.  Two deterministic refinement passes
then repair artifacts of symmetric molecules: image swaps that restore bond
consistency between attribute-identical atoms, and re-pairing of hydrogen
neighbors across matched heavy atoms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from templater.conserved_mapping import (
    HYDROGEN_SWAPPED,
    PATH_REFINED,
    SIMILARITY,
    AtomMapping,
)
from templater.graph_core import UnifiedGraph

logger = logging.getLogger("templater")

HYDROGEN_MASS = 1.008
DEFAULT_HYDROGEN_TOLERANCE = 0.01

_IMPROVEMENT_EPS = 1e-12
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class ScoringWeights:
    """Relative importance of type match, mass match and shell overlap."""

    alpha: float = 0.5
    beta: float = 0.25
    gamma: float = 0.25

    def normalized(self) -> "ScoringWeights":
        total = self.alpha + self.beta + self.gamma
        if not math.isfinite(total):
            raise ValueError("scoring weights must be finite")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("scoring weights must be non-negative")
        if total <= 0:
            raise ValueError("scoring weights must not all be zero")
        return ScoringWeights(self.alpha / total, self.beta / total, self.gamma / total)

    @property
    def is_normalized(self) -> bool:
        return abs(self.alpha + self.beta + self.gamma - 1.0) < 1e-9


@dataclass
class SimilarityMatrix:
    """Scores for every unmapped reactant row against product column.

    This is the one place pairs are scored: the assignment reads it, and so
    does path refinement.
    """

    rows: list[int]
    cols: list[int]
    scores: np.ndarray


def _shell_histograms(
    graph: UnifiedGraph,
    gids: list[int],
    max_depth: int,
    label_of: dict[int, tuple[int, int]],
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Label counts ``(max_depth, len(gids), n_labels)`` and sizes
    ``(max_depth, len(gids))`` of the depth 1..max_depth shells of each node."""
    sizes = np.zeros((max_depth, len(gids)), dtype=np.int64)
    cells = []
    for i, gid in enumerate(gids):
        for k, shell in enumerate(graph.shells(gid)[1 : max_depth + 1]):
            sizes[k, i] = len(shell)
            base = (k * len(gids) + i) * n_labels
            for n in shell:
                cells.extend(base + label for label in label_of[n])
    counts = np.bincount(
        np.array(cells, dtype=np.intp), minlength=max_depth * len(gids) * n_labels
    )
    return counts.reshape(max_depth, len(gids), n_labels), sizes


def build_similarity_matrix(
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    rows: set[int],
    cols: set[int],
    weights: ScoringWeights = ScoringWeights(),
) -> SimilarityMatrix:
    """Depth-weighted similarity of every unmapped reactant row against
    every product column.

    The comparison depth of a pair is the smaller of the two within-molecule
    eccentricities, clamped to at least 1 so isolated atoms still compare
    their root attributes.  Every depth contributes the (constant) root
    type and mass indicators plus the shell overlap counts, the latter
    normalized by the larger of the two shell sizes at that depth.  The
    per-depth normalization keeps the overlap term bounded, so root
    attribute agreement stays decisive instead of being drowned by
    whichever side sits in the bigger molecule.

    Shells become per-depth histograms over one label index holding type ids
    and exact masses as separate labels, so a shell overlap is
    ``np.minimum(h_r, h_p).sum(-1)``.  Depths are added up one at a time in
    ascending order, so every cell is bit-identical to a scalar loop over
    the depths (the tests keep one as the reference).
    """
    row_ids = sorted(rows)
    col_ids = sorted(cols)
    labels: dict[tuple[str, float], int] = {}

    def label_of(graph: UnifiedGraph) -> dict[int, tuple[int, int]]:
        return {
            gid: (
                labels.setdefault(("type", node.type_id), len(labels)),
                labels.setdefault(("mass", node.mass), len(labels)),
            )
            for gid, node in graph.nodes.items()
        }

    labels_reac = label_of(g_reac)
    labels_prod = label_of(g_prod)
    ecc_r = np.array([len(g_reac.shells(r)) - 1 for r in row_ids], dtype=np.int64)
    ecc_p = np.array([len(g_prod.shells(p)) - 1 for p in col_ids], dtype=np.int64)
    depth = np.maximum(1, np.minimum.outer(ecc_r, ecc_p))
    max_depth = int(depth.max(initial=1))
    hist_r, size_r = _shell_histograms(g_reac, row_ids, max_depth, labels_reac, len(labels))
    hist_p, size_p = _shell_histograms(g_prod, col_ids, max_depth, labels_prod, len(labels))

    type_r = np.array([g_reac.nodes[r].type_id for r in row_ids])
    type_p = np.array([g_prod.nodes[p].type_id for p in col_ids])
    mass_r = np.array([g_reac.nodes[r].mass for r in row_ids], dtype=float)
    mass_p = np.array([g_prod.nodes[p].mass for p in col_ids], dtype=float)
    root = (
        weights.alpha * np.equal.outer(type_r, type_p)
        + weights.beta * np.equal.outer(mass_r, mass_p)
    )
    scores = np.zeros((len(row_ids), len(col_ids)))
    for k in range(max_depth):
        shared = np.minimum(hist_r[k][:, None, :], hist_p[k][None, :, :]).sum(axis=-1)
        overlap = shared / np.maximum(np.maximum.outer(size_r[k], size_p[k]), 1)
        scores += np.where(k < depth, root + weights.gamma * overlap, 0.0)
    return SimilarityMatrix(rows=row_ids, cols=col_ids, scores=scores)


def similarity_score(
    v_r: int,
    v_p: int,
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    weights: ScoringWeights = ScoringWeights(),
) -> float:
    """Similarity of one reactant/product node pair: the one cell of
    ``build_similarity_matrix`` for it."""
    return float(build_similarity_matrix(g_reac, g_prod, {v_r}, {v_p}, weights).scores[0, 0])


def _linear_sum_assignment(entries: np.ndarray) -> tuple[list[int], list[int]]:
    """Row and column indices of a minimum-cost matching of ``entries``.

    A port of scipy's ``linear_sum_assignment`` (the shortest augmenting path
    method of Crouse, "On implementing 2D rectangular assignment algorithms",
    IEEE TAES 2016) that returns the same indices, ties included: the matrix
    is transposed when it has fewer columns than rows, each augmentation scans
    the free columns from the last one down and removes a chosen column by
    swapping the last remaining one into its place, on equal reduced cost an
    unassigned column wins (the last one scanned among unassigned columns),
    and the float operations run in scipy's order.  Pairs come back ordered
    by row.

    Entries must be finite: a NaN compares false with every bound, so the
    search would never settle on a column, and a ``ValueError`` is raised
    instead (scipy rejects NaN and -inf as well).  The cost is
    O(rows * cols * min(rows, cols)) in Python.
    """
    if not np.isfinite(entries).all():
        raise ValueError("cost matrix entries must be finite")
    cost = entries.tolist()
    transpose = bool(cost) and len(cost[0]) < len(cost)
    if transpose:
        cost = [list(column) for column in zip(*cost)]
    n_rows = len(cost)
    n_cols = len(cost[0]) if cost else 0
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            cost_i = cost[i]
            u_i = u[i]
            lowest = math.inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + cost_i[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(n_rows)), col4row


def solve_assignment(matrix: SimilarityMatrix) -> list[tuple[int, int]]:
    """Sorted (reactant gid, product gid) pairs of a maximum-similarity matching.

    The costs are the negated scores, min-max normalized into [0, 1] (all
    zeros when the scores are constant), and the matching covers
    min(rows, cols) pairs: rectangular matrices are expected whenever atoms
    appear or vanish.  Non-finite scores raise ``ValueError``.
    """
    if not np.isfinite(matrix.scores).all():
        raise ValueError("similarity scores must be finite")
    raw = -matrix.scores
    low = float(raw.min())
    high = float(raw.max())
    entries = np.zeros_like(raw) if high == low else (raw - low) / (high - low)
    row_ind, col_ind = _linear_sum_assignment(entries)
    return sorted((matrix.rows[i], matrix.cols[j]) for i, j in zip(row_ind, col_ind))


def assign_similarity(
    mapping: AtomMapping,
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    weights: ScoringWeights = ScoringWeights(),
) -> tuple[AtomMapping, SimilarityMatrix | None]:
    """Extend a conserved mapping over the unmapped remainder."""
    result = mapping.copy()
    rows, cols = result.unmapped(g_reac, g_prod)
    if not rows or not cols:
        return result, None
    matrix = build_similarity_matrix(g_reac, g_prod, rows, cols, weights)
    logger.info("similarity matrix: %d x %d", len(matrix.rows), len(matrix.cols))
    for r_gid, p_gid in solve_assignment(matrix):
        result.add(r_gid, p_gid, SIMILARITY)
    return result, matrix


def refine_symmetric_paths(
    mapping: AtomMapping,
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    matrix: SimilarityMatrix | None,
) -> AtomMapping:
    """Resolve mappings of structurally indistinguishable alternatives.

    Images of two equal-mass, non-conserved reactant nodes are swapped
    whenever that strictly raises the combined similarity-plus-connectivity
    objective around them, and the hill climb repeats until no swap helps.
    Conserved pairs act as fixed anchors: they are never re-paired but their
    preserved edges reward candidates consistent with them.  The pass keeps
    the injection, never changes cardinality, and is idempotent.

    Similarities are read from ``matrix``, the one ``assign_similarity``
    returned: every non-conserved pair a swap can form is one of its cells.
    ``None`` (nothing was left to assign) means there is nothing to move.

    A swap only changes the terms of the two nodes and their mapped
    neighbours, so each trial exchanges the two images in place, sums the
    objective over those nodes, and exchanges them back; the mapping is
    repaired only for an accepted swap.
    """
    result = mapping.copy()
    movable = sorted(r for r in result.pairs if not result.is_conserved(r))
    if not movable:
        return result
    row_of = {r: i for i, r in enumerate(matrix.rows)}
    col_of = {p: j for j, p in enumerate(matrix.cols)}
    scores = matrix.scores.tolist()
    pairs = result.pairs
    movable_set = set(movable)
    partners = [
        [v for v in movable[i + 1 :] if g_reac.nodes[v].mass == g_reac.nodes[u].mass]
        for i, u in enumerate(movable)
    ]

    def objective(nodes: set[int]) -> float:
        """Similarity of movable pairs plus one unit per preserved edge, over nodes.

        Conserved anchors add only their edges: a swap never changes their
        similarity, so it would be the same term on both sides of a comparison.
        The accept test compares two such sums against a 1e-12 margin, so the
        order of the terms (``nodes``, then ``g_reac.neighbors``) is part of
        which swaps win a near tie.
        """
        total = 0.0
        for r in nodes:
            p = pairs[r]
            if r in movable_set:
                total += scores[row_of[r]][col_of[p]]
            images = g_prod.neighbors(p)
            for x in g_reac.neighbors(r):
                if pairs.get(x) in images:
                    total += 1.0
        return total

    sweeps = swaps = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for u, candidates in zip(movable, partners):
            for v in candidates:
                affected = {u, v}
                affected.update(x for x in g_reac.neighbors(u) if x in pairs)
                affected.update(x for x in g_reac.neighbors(v) if x in pairs)
                before = objective(affected)
                image_u, image_v = pairs[u], pairs[v]
                pairs[u], pairs[v] = image_v, image_u
                after = objective(affected)
                pairs[u], pairs[v] = image_u, image_v
                if after > before + _IMPROVEMENT_EPS:
                    improved = True
                    swaps += 1
                    result.repair(u, None, "")
                    result.repair(v, image_u, PATH_REFINED)
                    result.repair(u, image_v, PATH_REFINED)
    logger.info("path refinement: %d sweep(s), %d swap(s)", sweeps, swaps)
    return result


def _is_hydrogen_like(graph: UnifiedGraph, gid: int, tolerance: float) -> bool:
    return abs(graph.nodes[gid].mass - HYDROGEN_MASS) <= tolerance


def swap_hydrogens(
    mapping: AtomMapping,
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    tolerance: float = DEFAULT_HYDROGEN_TOLERANCE,
) -> AtomMapping:
    """Re-pair hydrogen-like neighbors across matched heavy-atom pairs.

    For every matched pair whose neighborhood sizes disagree, hydrogen-like
    reactant neighbors mapped away from the partner's neighborhood are
    re-pointed at hydrogen-like product neighbors lacking a local preimage,
    smallest source ids first.  Displaced images move to the displaced
    preimages, so cardinality and the injection are preserved; conserved
    pairs are never touched.  Runs to a fixpoint, making the pass
    idempotent on molecular graphs (hydrogens have a single neighbor); a
    pass still changing pairs after ``_MAX_SWEEPS`` sweeps stops with a
    warning.
    """
    result = mapping.copy()
    changed = True
    sweeps = swaps = 0
    while changed and sweeps < _MAX_SWEEPS:
        changed = False
        sweeps += 1
        for r in sorted(result.pairs):
            p = result.pairs[r]
            nbrs_r = g_reac.neighbors(r)
            nbrs_p = g_prod.neighbors(p)
            if len(nbrs_r) == len(nbrs_p):
                continue
            local_images = set(nbrs_p)
            local_preimages = set(nbrs_r)
            stray = [
                h
                for h in nbrs_r
                if _is_hydrogen_like(g_reac, h, tolerance)
                and h in result.pairs
                and not result.is_conserved(h)
                and result.pairs[h] not in local_images
            ]
            open_slots = []
            for h_p in nbrs_p:
                if not _is_hydrogen_like(g_prod, h_p, tolerance):
                    continue
                pre = result.reverse.get(h_p)
                if pre is None:
                    open_slots.append(h_p)
                elif pre not in local_preimages and not result.is_conserved(pre):
                    open_slots.append(h_p)
            for h_r, h_p in zip(sorted(stray), sorted(open_slots)):
                displaced_image = result.pairs[h_r]
                displaced_pre = result.reverse.get(h_p)
                result.repair(h_r, None, "")
                if displaced_pre is not None:
                    result.repair(displaced_pre, None, "")
                result.add(h_r, h_p, HYDROGEN_SWAPPED)
                if displaced_pre is not None:
                    result.add(displaced_pre, displaced_image, HYDROGEN_SWAPPED)
                changed = True
                swaps += 1
    if changed:
        logger.warning(
            "hydrogen swap: stopped at the %d-sweep cap with pairs still changing", _MAX_SWEEPS
        )
    logger.info("hydrogen swap: %d sweep(s), %d swap(s)", sweeps, swaps)
    return result


def similarity_csv(matrix: SimilarityMatrix, g_reac: UnifiedGraph, g_prod: UnifiedGraph) -> str:
    """Render the similarity matrix as CSV with source-atom-id headers.

    When a side holds several molecules and plain source ids would collide,
    labels carry a ``component.`` prefix.
    """

    def labels(graph: UnifiedGraph, gids: list[int]) -> list[str]:
        sources = [graph.nodes[g].source_id for g in gids]
        if len(set(sources)) == len(sources):
            return [str(s) for s in sources]
        return [f"{graph.nodes[g].component}.{graph.nodes[g].source_id}" for g in gids]

    header = [""] + labels(g_prod, matrix.cols)
    lines = [",".join(header)]
    row_labels = labels(g_reac, matrix.rows)
    for label, row in zip(row_labels, matrix.scores):
        lines.append(",".join([label] + [f"{value:.6f}" for value in row]))
    return "\n".join(lines) + "\n"
