"""Similarity scoring and the anchored assignment.

Unmapped node pairs are scored by a depth-weighted sum of root attribute
agreement and neighbor-shell overlap, turned into a normalized cost matrix
and matched by linear sum assignment.  The map grows outward from mapped
atoms: each round rewards a pair for every bond it keeps to a mapped
neighbour, which resolves symmetric paths and interchangeable hydrogens.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from templater.conserved_mapping import ANCHORED, SIMILARITY, AtomMapping
from templater.graph_core import UnifiedGraph

logger = logging.getLogger("templater")


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

    This is the one place pairs are scored: every anchored round and every
    seed reads a block of it.
    """

    rows: list[int]
    cols: list[int]
    scores: np.ndarray

    def block(self, rows: list[int], cols: list[int]) -> "SimilarityMatrix":
        """The scores of some of its rows and columns, each list sorted."""
        at_rows = [bisect_left(self.rows, r) for r in rows]
        at_cols = [bisect_left(self.cols, p) for p in cols]
        return SimilarityMatrix(rows, cols, self.scores[at_rows][:, at_cols])


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


def _best_pair(matrix: SimilarityMatrix, accept: np.ndarray | None = None) -> tuple[int, int] | None:
    """The highest-scoring pair of ``solve_assignment(matrix)`` among those
    ``accept`` marks (all when it is None); ties go to the smallest
    (reactant gid, product gid), and None means that no pair is marked."""
    ranked = []
    for r, p in solve_assignment(matrix):
        i, j = matrix.rows.index(r), matrix.cols.index(p)
        if accept is None or accept[i, j]:
            ranked.append((-matrix.scores[i, j], r, p))
    return min(ranked)[1:] if ranked else None


def _anchored_pair(
    matrix: SimilarityMatrix, bonus: float, mapping: AtomMapping, free_rows: set[int]
) -> tuple[int, int] | None:
    """The pair one anchored round accepts, or None.

    The rows are the free reactant atoms with a mapped neighbour, the
    columns the free product neighbours of those neighbours' images.  A
    cell's anchor count is the number of the row's mapped neighbours whose
    image is bonded to the column, and each counted anchor adds ``bonus``
    (more than the whole similarity span) to the cell's similarity, so
    kept bonds outrank similarity, and atoms of different mass may pair,
    as a united-atom ``=CH-`` does with its ``CH2`` image.

    A round accepts one pair, the best anchored pair of its matching, so
    the next round sees it: two paths growing toward each other from
    different anchors, as around a para-substituted ring, then meet with
    their bonds kept.
    """
    counts: dict[int, dict[int, int]] = {}
    for r in sorted(free_rows):
        images = [mapping.pairs[x] for x in mapping.g_reac.neighbors(r) if x in mapping.pairs]
        if images:
            row = counts[r] = {}
            for image in images:
                for q in mapping.g_prod.neighbors(image):
                    if q not in mapping.reverse:
                        row[q] = row.get(q, 0) + 1
    rows = list(counts)
    cols = sorted({q for row in counts.values() for q in row})
    if not cols:
        return None
    anchors = np.array([[counts[r].get(q, 0) for q in cols] for r in rows])
    scores = matrix.block(rows, cols).scores + bonus * anchors
    return _best_pair(SimilarityMatrix(rows, cols, scores), anchors > 0)


def assign_similarity(
    mapping: AtomMapping, weights: ScoringWeights = ScoringWeights()
) -> tuple[AtomMapping, SimilarityMatrix | None]:
    """Extend a conserved mapping over the unmapped remainder.

    The similarity matrix is built once over the whole remainder, and the
    map grows outward from mapped atoms in anchored rounds (see
    ``_anchored_pair``), whose pairs take the ``anchored`` provenance.
    When a round accepts nothing while both sides still have free atoms,
    the best pair of the plain assignment of what is left seeds the next
    rounds, with the ``similarity`` provenance.  Rewarding kept bonds this
    way favours maps with the fewest bond edits, and settles symmetric
    paths and interchangeable hydrogens.
    """
    result = mapping.copy()
    rows, cols = result.unmapped()
    if not rows or not cols:
        return result, None
    matrix = build_similarity_matrix(result.g_reac, result.g_prod, rows, cols, weights)
    logger.info("similarity matrix: %d x %d", len(matrix.rows), len(matrix.cols))
    bonus = float(matrix.scores.max() - matrix.scores.min()) + 1.0
    rounds = anchored = seeds = 0
    while rows and cols:
        rounds += 1
        pair = _anchored_pair(matrix, bonus, result, rows)
        if pair is not None:
            anchored += 1
            result.add(*pair, ANCHORED)
        else:
            seeds += 1
            pair = _best_pair(matrix.block(sorted(rows), sorted(cols)))
            result.add(*pair, SIMILARITY)
        rows.discard(pair[0])
        cols.discard(pair[1])
    logger.info(
        "anchored assignment: %d round(s), %d anchored pair(s), %d seed(s)",
        rounds, anchored, seeds,
    )
    return result, matrix


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
