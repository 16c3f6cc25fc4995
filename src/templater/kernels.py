"""Kernel for the connected maximum-common-subgraph search.

Branch and bound over pair-compatibility classes in the McSplit style: a
class groups reactant and product nodes that (a) share the same attribute
label and (b) have identical adjacency patterns toward every pair matched
so far.  Only classes adjacent to the current mapping may extend it, which
keeps every explored mapping connected, and the matched subgraphs are
induced on both sides by construction.

Among all maximum-cardinality mappings the kernel returns the one whose
sorted pair list is lexicographically smallest, so results are reproducible
regardless of exploration order.  Work is metered in pair expansions against
a caller-supplied budget.

Symmetric nodes, such as the hydrogens on one carbon, are twins; the search
explores only one representative of each twin group (see
``max_common_connected_subgraph``), which keeps their permutations from
multiplying the search without changing the result.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from templater.errors import BudgetExceeded


def _twin_groups(
    labels: list[int], adj: list[int], allowed_key: Callable[[int], Hashable]
) -> list[int]:
    """Twin group per node: the smallest node it is a twin of, or itself.

    Twins share the label, the adjacency mask and ``allowed_key``.  The
    constraint key is computed only inside groups of equal (label, mask),
    so graphs without twins pay for one dictionary pass.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for node, shape in enumerate(zip(labels, adj)):
        by_shape.setdefault(shape, []).append(node)
    twin = list(range(len(labels)))
    for members in by_shape.values():
        if len(members) > 1:
            first: dict[Hashable, int] = {}
            for node in members:
                twin[node] = first.setdefault(allowed_key(node), node)
    return twin


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
    branches the smallest node ``v`` of a class over only the first product
    candidate of each twin group, and in the branch where ``v`` stays
    unmatched it drops ``v``'s twins from the class too.  Both prunes are
    exact: swapping two twins is a label-preserving automorphism that keeps
    ``allowed``, and because every class lists its nodes in ascending order,
    a mapping either prune skips turns under that swap into one of the same
    size with a strictly smaller sorted pair list.  The lexicographically
    smallest maximum mapping is therefore never skipped; only the
    expansion count drops.

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
    by_label: dict[int, tuple[list[int], list[int]]] = {}
    for v, label in enumerate(labels_r):
        by_label.setdefault(label, ([], []))[0].append(v)
    for w, label in enumerate(labels_p):
        entry = by_label.get(label)
        if entry is not None:
            entry[1].append(w)
    classes = [
        (g_nodes, h_nodes, False)
        for label, (g_nodes, h_nodes) in sorted(by_label.items())
        if g_nodes and h_nodes
    ]
    if allowed is None:
        twin_r = _twin_groups(labels_r, adj_r, lambda v: None)
        twin_p = _twin_groups(labels_p, adj_p, lambda w: None)
    else:
        twin_r = _twin_groups(labels_r, adj_r, allowed.__getitem__)
        twin_p = _twin_groups(
            labels_p, adj_p, lambda w: tuple((row >> w) & 1 for row in allowed)
        )

    best_pairs: list[tuple[int, int]] = []
    best_key: tuple[tuple[int, int], ...] = ()
    expansions = 0

    def refine(
        current: list[tuple[list[int], list[int], bool]], v: int, w: int
    ) -> list[tuple[list[int], list[int], bool]]:
        mask_v = adj_r[v]
        mask_w = adj_p[w]
        refined = []
        for g_nodes, h_nodes, adjacent in current:
            g_adj = [u for u in g_nodes if u != v and (mask_v >> u) & 1]
            g_non = [u for u in g_nodes if u != v and not (mask_v >> u) & 1]
            h_adj = [x for x in h_nodes if x != w and (mask_w >> x) & 1]
            h_non = [x for x in h_nodes if x != w and not (mask_w >> x) & 1]
            if g_adj and h_adj:
                refined.append((g_adj, h_adj, True))
            if g_non and h_non:
                refined.append((g_non, h_non, adjacent))
        return refined

    def search(
        current: list[tuple[list[int], list[int], bool]],
        mapping: list[tuple[int, int]],
    ) -> None:
        nonlocal best_pairs, best_key, expansions
        size = len(mapping)
        if size >= len(best_pairs):
            key = tuple(sorted(mapping))
            if size > len(best_pairs) or key < best_key:
                best_pairs = list(mapping)
                best_key = key
        bound = size + sum(min(len(g), len(h)) for g, h, _ in current)
        if bound < len(best_pairs):
            return
        eligible = [
            cls for cls in current if cls[2] or not mapping
        ]
        if not eligible:
            return
        cls = min(eligible, key=lambda c: (max(len(c[0]), len(c[1])), c[0][0]))
        v = cls[0][0]
        tried: set[int] = set()
        for w in cls[1]:
            if allowed is not None and not (allowed[v] >> w) & 1:
                continue
            if twin_p[w] in tried:
                continue
            tried.add(twin_p[w])
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(
                    f"common-subgraph search exceeded {budget} pair expansions"
                )
            mapping.append((v, w))
            search(refine(current, v, w), mapping)
            mapping.pop()
        group = twin_r[v]
        remainder = []
        for g_nodes, h_nodes, adjacent in current:
            if v in g_nodes:
                g_nodes = [u for u in g_nodes if twin_r[u] != group]
                if not g_nodes:
                    continue
            remainder.append((g_nodes, h_nodes, adjacent))
        search(remainder, mapping)

    if classes:
        search(classes, [])
    return sorted(best_pairs), expansions


# There is one kernel, in pure Python.  The benchmark harness
# (perfbench/run.py, record.py and kernel_suite.py) still imports these two
# names to label and cross-check the kernel it times.
BACKEND = "python"
pure_python_kernel = max_common_connected_subgraph
