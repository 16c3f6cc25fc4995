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
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from templater.conserved_mapping import ANCHORED, SIMILARITY, AtomMapping
from templater.graph_core import UnifiedGraph

logger = logging.getLogger("templater")

# The budget for the largest temporary of one block of depths in
# ``build_similarity_matrix``.  Small matrices take all their depths in one
# block; 8 KiB keeps the blocks of the benchmark's 22 x 24 matrices to one
# depth, below the memory peak of the template and output stages.
_BLOCK_BYTES = 1 << 13


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


def _node_labels(
    g_reac: UnifiedGraph, g_prod: UnifiedGraph
) -> tuple[np.ndarray, np.ndarray, int]:
    """Each node's type label and mass label, as ``(max gid + 1, 2)`` arrays
    indexed by gid, one per side, and the number of labels.

    Type ids and exact masses of both sides share one label index, types
    first, so a type and a mass that compare equal are still different
    labels, and two nodes share a label exactly when their type ids (or
    masses) are equal.
    """
    nodes = [*g_reac.nodes.values(), *g_prod.nodes.values()]
    types = np.fromiter(map(attrgetter("type_id"), nodes), np.int64, len(nodes))
    masses = np.fromiter(map(attrgetter("mass"), nodes), float, len(nodes))
    type_values, type_labels = np.unique(types, return_inverse=True)
    mass_values, mass_labels = np.unique(masses, return_inverse=True)
    labels = np.stack([type_labels, len(type_values) + mass_labels], axis=1)
    tables = []
    for graph, side in zip((g_reac, g_prod), np.split(labels, [len(g_reac.nodes)])):
        gids = np.fromiter(graph.nodes, np.intp, len(graph.nodes))
        table = np.zeros((gids.max(initial=0) + 1, 2), dtype=np.intp)
        table[gids] = side
        tables.append(table)
    return tables[0], tables[1], len(type_values) + len(mass_values)


def _shell_histograms(
    shells: list[tuple[tuple[int, ...], ...]],
    max_depth: int,
    labels: np.ndarray,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Label counts ``(max_depth, n_labels, len(shells))`` and sizes
    ``(max_depth, len(shells))`` of the depth 1..max_depth shells of each
    node, given its ``UnifiedGraph.shells``.

    The counts are built by one ``bincount`` and kept in the smallest
    unsigned dtype that holds the largest of them.  Nodes are the last axis,
    so a shell overlap sums whole planes.
    """
    n = len(shells)
    sizes = np.fromiter(
        (len(node[k]) if k < len(node) else 0 for node in shells for k in range(1, max_depth + 1)),
        np.intp,
        n * max_depth,
    )
    members = np.fromiter(
        chain.from_iterable(chain.from_iterable(islice(node, 1, max_depth + 1) for node in shells)),
        np.intp,
        int(sizes.sum()),
    )
    # Label l of shell k of node i is counted at (k * n_labels + l) * n + i.
    keys = np.arange(max_depth) * (n_labels * n) + np.arange(n)[:, None]
    cells = np.repeat(keys.ravel(), sizes)[:, None] + labels[members] * n
    counts = np.bincount(cells.ravel(), minlength=max_depth * n_labels * n)
    counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
    return counts.reshape(max_depth, n_labels, n), sizes.reshape(n, max_depth).T


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
    ``np.minimum(h_r, h_p)`` summed over the labels.  The depths are taken
    in blocks, as many per block as keep its largest temporary within
    ``_BLOCK_BYTES``, and summed in ascending order by ``np.add.accumulate``,
    so every cell is bit-identical to a scalar loop over the depths (the
    tests keep one as the reference).
    """
    row_ids = sorted(rows)
    col_ids = sorted(cols)
    labels_reac, labels_prod, n_labels = _node_labels(g_reac, g_prod)
    shells_r = [g_reac.shells(r) for r in row_ids]
    shells_p = [g_prod.shells(p) for p in col_ids]
    ecc_r = np.fromiter(map(len, shells_r), np.intp, len(row_ids)) - 1
    ecc_p = np.fromiter(map(len, shells_p), np.intp, len(col_ids)) - 1
    depth = np.maximum(1, np.minimum.outer(ecc_r, ecc_p))
    max_depth = int(depth.max(initial=1))
    hist_r, size_r = _shell_histograms(shells_r, max_depth, labels_reac, n_labels)
    hist_p, size_p = _shell_histograms(shells_p, max_depth, labels_prod, n_labels)
    # Free the shells before the depth loop allocates its temporaries.
    del shells_r, shells_p

    root_r = labels_reac[row_ids]
    root_p = labels_prod[col_ids]
    root = (
        weights.alpha * np.equal.outer(root_r[:, 0], root_p[:, 0])
        + weights.beta * np.equal.outer(root_r[:, 1], root_p[:, 1])
    )
    # The largest temporary of one depth: its (labels, rows, cols) shell
    # minima or one of its float (rows, cols) arrays.
    itemsize = np.result_type(hist_r, hist_p).itemsize
    per_depth = len(row_ids) * len(col_ids) * max(n_labels * itemsize, 8)
    step = max(1, _BLOCK_BYTES // max(per_depth, 1))
    scores = np.zeros((len(row_ids), len(col_ids)))
    for k in range(0, max_depth, step):
        block = slice(k, k + step)
        shared = np.minimum(hist_r[block, :, :, None], hist_p[block, :, None, :]).sum(axis=1)
        larger = np.maximum(size_r[block, :, None], size_p[block, None, :])
        overlap = shared / np.maximum(larger, 1)
        ks = np.arange(k, k + len(overlap))[:, None, None]
        terms = np.where(ks < depth, root + weights.gamma * overlap, 0.0)
        terms[0] += scores
        scores = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return SimilarityMatrix(rows=row_ids, cols=col_ids, scores=scores.copy())


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
    transpose = entries.shape[1] < entries.shape[0]
    cost = (entries.T if transpose else entries).tolist()
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
    scores = matrix.scores
    high = float(scores.max())
    low = float(scores.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("similarity scores must be finite")
    # (high - s) / (high - low) is bit for bit the min-max normalized -s.
    entries = np.zeros_like(scores) if high == low else (high - scores) / (high - low)
    row_ind, col_ind = _linear_sum_assignment(entries)
    return sorted((matrix.rows[i], matrix.cols[j]) for i, j in zip(row_ind, col_ind))


def _best_pair(
    matrix: SimilarityMatrix, accept: dict[int, dict[int, int]] | None = None
) -> tuple[int, int] | None:
    """The highest-scoring pair of ``solve_assignment(matrix)`` among those
    whose column ``accept`` holds for their row (all when it is None); ties
    go to the smallest (reactant gid, product gid), and None means that no
    pair is accepted."""
    ranked = []
    for r, p in solve_assignment(matrix):
        if accept is None or p in accept[r]:
            i, j = matrix.rows.index(r), matrix.cols.index(p)
            ranked.append((-matrix.scores[i, j], r, p))
    return min(ranked)[1:] if ranked else None


def _advance_frontier(
    frontier: dict[int, dict[int, int]], mapping: AtomMapping, r: int, p: int
) -> None:
    """Bring ``frontier`` up to date after ``mapping`` gained the pair (r, p):
    r and p are no longer free, and each free neighbour of r gains p as an
    anchor.  Applied once to each mapped atom next to a free one, it builds
    the frontier from an empty one."""
    frontier.pop(r, None)
    for counts in frontier.values():
        counts.pop(p, None)
    free = [q for q in mapping.g_prod.neighbors(p) if q not in mapping.reverse]
    for x in mapping.g_reac.neighbors(r):
        if x not in mapping.pairs:
            counts = frontier.setdefault(x, {})
            for q in free:
                counts[q] = counts.get(q, 0) + 1


def _anchored_pair(
    matrix: SimilarityMatrix, bonus: float, frontier: dict[int, dict[int, int]]
) -> tuple[int, int] | None:
    """The pair one anchored round accepts, or None.

    The rows are the free reactant atoms with a mapped neighbour, the
    columns the free product neighbours of those neighbours' images (see
    ``_advance_frontier``).  A cell's anchor count is the number of the row's
    mapped neighbours whose image is bonded to the column, and each counted
    anchor adds ``bonus`` (more than the whole similarity span) to the
    cell's similarity, so kept bonds outrank similarity, and atoms of
    different mass may pair, as a united-atom ``=CH-`` does with its ``CH2``
    image.

    A round accepts one pair, the best anchored pair of its matching, so
    the next round sees it: two paths growing toward each other from
    different anchors, as around a para-substituted ring, then meet with
    their bonds kept.
    """
    rows = sorted(frontier)
    cols = sorted({q for counts in frontier.values() for q in counts})
    if not cols:
        return None
    at = [bisect_left(matrix.cols, q) for q in cols]
    scores = []
    for r in rows:
        line = matrix.scores[bisect_left(matrix.rows, r)].tolist()
        counts = frontier[r]
        scores.append([line[j] + bonus * counts.get(q, 0) for q, j in zip(cols, at)])
    return _best_pair(SimilarityMatrix(rows, cols, np.array(scores)), frontier)


def assign_similarity(
    mapping: AtomMapping, weights: ScoringWeights = ScoringWeights()
) -> tuple[AtomMapping, SimilarityMatrix]:
    """Extend a conserved mapping over the unmapped remainder.

    The similarity matrix is built once over the whole remainder, and the
    map grows outward from mapped atoms in anchored rounds (see
    ``_anchored_pair``), whose pairs take the ``anchored`` provenance.
    When a round accepts nothing while both sides still have free atoms,
    the best pair of the plain assignment of what is left seeds the next
    rounds, with the ``similarity`` provenance.  Rewarding kept bonds this
    way favours maps with the fewest bond edits, and settles symmetric
    paths and interchangeable hydrogens.  The anchor counts are kept up to
    date as pairs are accepted, not rebuilt each round.  A round accepts
    one pair, so the smaller side's free atoms give the number of rounds.
    When one side has no free atom, the matrix of the remainder is empty.
    """
    result = mapping.copy()
    rows, cols = result.unmapped()
    if not rows or not cols:
        empty = np.zeros((len(rows), len(cols)))
        return result, SimilarityMatrix(sorted(rows), sorted(cols), empty)
    matrix = build_similarity_matrix(result.g_reac, result.g_prod, rows, cols, weights)
    logger.info("similarity matrix: %d x %d", len(matrix.rows), len(matrix.cols))
    bonus = float(matrix.scores.max() - matrix.scores.min()) + 1.0
    frontier: dict[int, dict[int, int]] = {}
    for r in {x for row in rows for x in result.g_reac.neighbors(row) if x in result.pairs}:
        _advance_frontier(frontier, result, r, result.pairs[r])
    rounds = min(len(rows), len(cols))
    seeds = 0
    for _ in range(rounds):
        pair = _anchored_pair(matrix, bonus, frontier)
        if pair is not None:
            result.add(*pair, ANCHORED)
        else:
            seeds += 1
            pair = _best_pair(matrix.block(*map(sorted, result.unmapped())))
            result.add(*pair, SIMILARITY)
        _advance_frontier(frontier, result, *pair)
    logger.info(
        "anchored assignment: %d round(s), %d anchored pair(s), %d seed(s)",
        rounds, rounds - seeds, seeds,
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
