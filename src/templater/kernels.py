"""Kernel for the connected maximum-common-subgraph search.

Branch and bound over pair-compatibility classes in the McSplit style: a
class groups reactant and product nodes that (a) share the same attribute
label and (b) have identical adjacency patterns toward every pair matched
so far.  Only classes adjacent to the current mapping may extend it, which
keeps every explored mapping connected, and the matched subgraphs are
induced on both sides by construction.

Each class is two Python ints used as bitsets, one bit per reactant node
and one per product node, as in bit-parallel branch and bound.  Matching
``v`` to ``w`` splits a class ``(g, h)`` into ``(g & adj_r[v], h &
adj_p[w])`` and ``(g & ~adj_r[v], h & ~adj_p[w])`` without ``v`` and
``w``, so an expansion costs a few integer operations per class instead of
a pass over its nodes.  The bound adds ``min(g.bit_count(),
h.bit_count())`` over the classes (``int.bit_count`` needs Python 3.10).
The search branches on the eligible class with the fewest nodes on its
wider side, ties to the lowest reactant bit; it takes that class's lowest
reactant node ``v`` and tries its product candidates in ascending bit
order.

Among all maximum-cardinality mappings the kernel returns the one whose
sorted pair list is lexicographically smallest, so results are reproducible
regardless of exploration order.  Work is metered in pair expansions against
a caller-supplied budget.

Symmetric nodes, such as the hydrogens on one carbon, are twins; the search
explores only one representative of each twin group, and drops a whole
group with one precomputed mask (see ``max_common_connected_subgraph`` for
why this is exact), which keeps their permutations from multiplying the
search without changing the result.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Callable, Hashable

from templater.errors import BudgetExceeded


_recursion_limit_lock = threading.Lock()


def _allow_recursion(depth: int) -> None:
    """Raise the interpreter's recursion limit, never lower it, so that
    ``depth`` more frames fit on top of the caller's."""
    frame, in_use = sys._getframe(), 0
    while frame is not None:
        frame, in_use = frame.f_back, in_use + 1
    with _recursion_limit_lock:
        if sys.getrecursionlimit() < in_use + depth:
            sys.setrecursionlimit(in_use + depth)


def _twin_masks(
    labels: list[int], adj: list[int], allowed_key: Callable[[int], Hashable]
) -> list[int]:
    """Twin-group bitmask per node: the bits of every twin of it, itself too.

    Twins share the label, the adjacency mask and ``allowed_key``.  The
    constraint key is computed only inside groups of equal (label, mask),
    so graphs without twins pay for one dictionary pass.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for node, shape in enumerate(zip(labels, adj)):
        by_shape.setdefault(shape, []).append(node)
    masks = [1 << node for node in range(len(labels))]
    for members in by_shape.values():
        if len(members) > 1:
            keys = [allowed_key(node) for node in members]
            groups: dict[Hashable, int] = {}
            for node, key in zip(members, keys):
                groups[key] = groups.get(key, 0) | 1 << node
            for node, key in zip(members, keys):
                masks[node] = groups[key]
    return masks


def max_common_connected_subgraph(
    labels_r: list[int],
    labels_p: list[int],
    adj_r: list[int],
    adj_p: list[int],
    budget: int,
    allowed: list[int] | None = None,
) -> tuple[list[tuple[int, int]], int]:
    """Find the best connected common induced subgraph mapping.

    Two reactant nodes are twins when they have the same label, adjacency
    mask and ``allowed`` row; two product nodes are twins when they have
    the same label, adjacency mask and ``allowed`` column.  The search
    branches the lowest node ``v`` of a class over only the first product
    candidate of each twin group, and in the branch where ``v`` stays
    unmatched it drops ``v``'s twins from the class too.  Both prunes are
    exact: swapping two twins is a label-preserving automorphism that keeps
    ``allowed``, and because ``v`` and the candidates are taken in
    ascending order, a mapping either prune skips turns under that swap
    into one of the same size with a strictly smaller sorted pair list.
    The lexicographically smallest maximum mapping is therefore never
    skipped; only the expansion count drops.

    Args:
        labels_r: attribute label per reactant node (0..n-1 index order).
        labels_p: attribute label per product node.
        adj_r: adjacency bitmask per reactant node.
        adj_p: adjacency bitmask per product node.
        budget: maximum number of pair expansions before BudgetExceeded.
        allowed: optional bitmask per reactant node restricting which
            product nodes it may pair with (external consistency
            constraints); None means everything is allowed.

    Returns:
        (pairs, expansions) where pairs is the sorted list of matched
        (reactant index, product index) pairs, empty when no node pair is
        label-compatible.
    """
    # Initial classes: one per label present on both sides.
    by_label: dict[int, list[int]] = {}
    for v, label in enumerate(labels_r):
        by_label.setdefault(label, [0, 0])[0] |= 1 << v
    for w, label in enumerate(labels_p):
        entry = by_label.get(label)
        if entry is not None:
            entry[1] |= 1 << w
    classes = [(g, h, False) for g, h in by_label.values() if h]
    if allowed is None:
        twins_r = _twin_masks(labels_r, adj_r, lambda v: None)
        twins_p = _twin_masks(labels_p, adj_p, lambda w: None)
    else:
        twins_r = _twin_masks(labels_r, adj_r, allowed.__getitem__)
        twins_p = _twin_masks(
            labels_p, adj_p, lambda w: tuple((row >> w) & 1 for row in allowed)
        )

    best_pairs: list[tuple[int, int]] = []
    best_key: list[tuple[int, int]] | None = None
    expansions = 0

    def refine(
        current: list[tuple[int, int, bool]], v: int, w: int
    ) -> list[tuple[int, int, bool]]:
        # v and w leave both halves, even where listed as their own neighbours.
        v_bit = 1 << v
        w_bit = 1 << w
        adj_v = adj_r[v] & ~v_bit
        adj_w = adj_p[w] & ~w_bit
        non_v = ~(adj_v | v_bit)
        non_w = ~(adj_w | w_bit)
        refined = []
        for g, h, adjacent in current:
            g_adj = g & adj_v
            h_adj = h & adj_w
            if g_adj and h_adj:
                refined.append((g_adj, h_adj, True))
            g_non = g & non_v
            h_non = h & non_w
            if g_non and h_non:
                refined.append((g_non, h_non, adjacent))
        return refined

    def search(current: list[tuple[int, int, bool]], mapping: list[tuple[int, int]]) -> None:
        nonlocal best_pairs, best_key, expansions
        size = len(mapping)
        # The sorted key of the best mapping is built only when a mapping
        # of equal size has to be compared with it.
        if size > len(best_pairs):
            best_pairs = list(mapping)
            best_key = None
        elif size == len(best_pairs):
            key = sorted(mapping)
            if best_key is None:
                best_key = sorted(best_pairs)
            if key < best_key:
                best_pairs = best_key = key
        # One pass sums the bound and picks the eligible class with the
        # fewest nodes on its wider side, ties to the lowest reactant node.
        # Classes are disjoint, so the key is unique and their order in the
        # list never matters.
        bound = size
        chosen = None
        chosen_key = None
        for cls in current:
            g, h, adjacent = cls
            count_g = g.bit_count()
            count_h = h.bit_count()
            if count_g < count_h:
                bound += count_g
                wide = count_h
            else:
                bound += count_h
                wide = count_g
            if adjacent or not size:
                key = (wide, g & -g)
                if chosen_key is None or key < chosen_key:
                    chosen, chosen_key = cls, key
        if bound < len(best_pairs) or chosen is None:
            return
        g, h, adjacent = chosen
        v = (g & -g).bit_length() - 1
        # Match v to the first candidate of each product twin group in turn,
        # in ascending order.
        candidates = h if allowed is None else h & allowed[v]
        while candidates:
            w = (candidates & -candidates).bit_length() - 1
            candidates &= ~twins_p[w]
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(
                    f"common-subgraph search exceeded {budget} pair expansions"
                )
            mapping.append((v, w))
            search(refine(current, v, w), mapping)
            mapping.pop()
        # Leave v unmatched, and with it its whole twin group.
        remainder = [cls for cls in current if cls is not chosen]
        rest = g & ~twins_r[v]
        if rest:
            remainder.append((rest, h, adjacent))
        search(remainder, mapping)

    if classes:
        # Every nested search call holds at least one reactant node fewer
        # than its parent, so the calls nest at most len(labels_r) + 1 deep;
        # the deepest one adds a few frames of its own (a comprehension,
        # tuple comparisons while sorting).
        _allow_recursion(len(labels_r) + 8)
        search(classes, [])
    return sorted(best_pairs), expansions


# There is one kernel, in pure Python.  The benchmark harness
# (perfbench/run.py, record.py and kernel_suite.py) still imports these two
# names to label and cross-check the kernel it times.
BACKEND = "python"
pure_python_kernel = max_common_connected_subgraph
