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
wider side, ties to the lowest reactant bit, as McSplit does (McCreesh,
Prosser & Trimble, IJCAI 2017).  Inside that class it takes the reactant
node ``v`` with the fewest skeleton bonds, ties to the lowest bit, or the
class's lowest reactant node when the class holds product twins (below),
and tries ``v``'s product candidates in ascending bit order.

Nodes may carry leaf counts: per folded label, how many leaves of that
label hang off the node (``conserved_mapping`` folds hydrogens this way).
A pair ``(v, w)`` then weighs 1 plus, summed over the labels, the smaller
of the two nodes' counts: the leaves the pair can match.  The search
maximizes the total weight instead of the pair count.  Without leaf counts
every pair weighs 1, and the search is the plain cardinality search.

Among all mappings of maximum weight the kernel returns the one whose
sorted pair list is lexicographically smallest, so results are reproducible
regardless of exploration order.  Work is metered in pair expansions against
a caller-supplied budget.  A caller that only wants mappings of at least
some weight passes it as a floor: the bound then cuts every search node
that cannot reach it, and the kernel returns nothing when no mapping does.

Symmetric product nodes, such as the two methyls on one carbon, are
twins; each reactant node is tried against only one member of each twin
group, the rest skipped with one precomputed mask, which keeps their
permutations from multiplying the search without changing the result.
That is exact only when ``v`` is its class's lowest reactant node (see
``max_common_connected_subgraph``), which is why a class with twins
branches on that node.

The search is depth first on a stack of its own rather than on Python's
call stack, so a conserved chain of any length needs neither a raised
recursion limit nor a deeper C stack.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Hashable

from templater.errors import BudgetExceeded

# A mapping as a linked list of pairs, newest first, so that every search
# node below a pair shares the cells above it.
Cell = tuple[tuple[int, int], "Cell"] | None


def _pairs(cell: Cell) -> list[tuple[int, int]]:
    pairs = []
    while cell is not None:
        pair, cell = cell
        pairs.append(pair)
    return pairs


def _twin_masks(
    labels: list[Hashable], adj: list[int], key_of: Callable[[int], Hashable], shared: Container
) -> list[int]:
    """Twin-group bitmask per node: the bits of every twin of it, itself too.

    Twins share the label, the adjacency mask and ``key_of`` (constraints
    and leaf counts).  Only nodes with a label in ``shared`` are grouped,
    since masks are read only inside classes; the rest keep their own bit.
    The key is computed only inside groups of equal (label, mask), so
    graphs without twins pay for one dictionary pass.
    """
    by_shape: dict[tuple[Hashable, int], list[int]] = {}
    for node, shape in enumerate(zip(labels, adj)):
        if shape[0] in shared:
            by_shape.setdefault(shape, []).append(node)
    masks = [1 << node for node in range(len(labels))]
    for members in by_shape.values():
        if len(members) > 1:
            keys = [key_of(node) for node in members]
            groups: dict[Hashable, int] = {}
            for node, key in zip(members, keys):
                groups[key] = groups.get(key, 0) | 1 << node
            for node, key in zip(members, keys):
                masks[node] = groups[key]
    return masks


def _at_least(counts: list[int]) -> list[int]:
    """Entry ``k - 1``: the mask of the nodes with at least ``k`` leaves,
    for ``k`` up to the largest count."""
    masks: list[int] = []
    for node, count in enumerate(counts):
        for k in range(count):
            if k == len(masks):
                masks.append(0)
            masks[k] |= 1 << node
    return masks


def max_common_connected_subgraph(
    labels_r: list[Hashable],
    labels_p: list[Hashable],
    adj_r: list[int],
    adj_p: list[int],
    budget: int,
    allowed: list[int] | None = None,
    leaves_r: list[list[int]] | None = None,
    leaves_p: list[list[int]] | None = None,
    floor: int = 0,
) -> tuple[list[tuple[int, int]], int]:
    """Find the best connected common induced subgraph mapping.

    Two product nodes are twins when they have the same label, leaf
    counts, adjacency mask and ``allowed`` column.  The search branches a
    class on its reactant node ``v`` with the fewest bonds in ``adj_r``,
    ties to the lowest bit, unless the class's product side holds a node
    with a twin; then ``v`` is the class's lowest reactant node.  ``v`` is
    matched to only the first free product candidate of each twin group.
    The prune is exact.  Swapping two twins ``w < w'`` is a
    label-preserving automorphism that keeps ``allowed`` and every pair
    weight.  A mapping the prune skips pairs ``v`` with ``w'``, and ``w``,
    if at all, with a node ``u`` of ``v``'s class, since twins share their
    adjacency and so stay in one class.  As ``v`` is the class's lowest
    node, ``u > v``.  The swap turns the mapping into one of the same
    weight, in the branch ``(v, w)``, whose sorted pair list is strictly
    smaller, first differing at ``v``.  The lexicographically smallest
    maximum mapping is therefore never skipped; only the expansion count
    drops.  The proof needs ``v`` lowest: with a node ``u < v`` left in
    the class, the swap moves the first difference to ``u``, where ``(u,
    w) < (u, w')``, so the skipped mapping can be the smallest one.  A
    class without twins skips nothing, and there ``v`` may be any node.

    With leaf counts the bound of a class ``(g, h)`` adds, to ``min(|g|,
    |h|)``, the sum over labels and ``k >= 1`` of ``min(|g & R[k]|, |h &
    P[k]|)``, where ``R[k]`` and ``P[k]`` hold the reactant and product
    nodes with at least ``k`` leaves of the label.  A pair ``(v, w)``
    matches the smaller of the two counts of a label, one leaf for each
    ``k`` at which ``v`` lies in ``R[k]`` and ``w`` in ``P[k]``, so no
    matching inside the class matches more leaves than that sum.  Without
    leaf counts the sum is empty and the bound is the plain one.

    A ``floor`` starts the search with that weight as the one to reach:
    a search node is cut only when its bound, the leaf levels included,
    is below it, so no mapping of weight ``floor`` or more is lost, and
    the result is the one the search without a floor returns whenever
    that one weighs at least ``floor``.

    Args:
        labels_r: attribute label per reactant node (0..n-1 index order),
            any hashable value; labels are only tested for equality.
        labels_p: attribute label per product node.
        adj_r: adjacency bitmask per reactant node.
        adj_p: adjacency bitmask per product node.
        budget: maximum number of pair expansions before BudgetExceeded.
        allowed: optional bitmask per reactant node restricting which
            product nodes it may pair with (external consistency
            constraints); None means everything is allowed.
        leaves_r: optional leaf counts, one list per folded label with a
            count per reactant node; None (with ``leaves_p``) weighs every
            pair 1.
        leaves_p: leaf counts per product node, in the same label order.
        floor: the least total weight worth returning; 0 returns the best
            mapping whatever its weight.

    Returns:
        (pairs, expansions) where pairs is the sorted list of matched
        (reactant index, product index) pairs of maximum total weight, empty
        when no node pair is label-compatible or no mapping reaches
        ``floor``.
    """
    # Initial classes: one per label present on both sides.
    by_label: dict[Hashable, list[int]] = {}
    for v, label in enumerate(labels_r):
        by_label.setdefault(label, [0, 0])[0] |= 1 << v
    for w, label in enumerate(labels_p):
        entry = by_label.get(label)
        if entry is not None:
            entry[1] |= 1 << w
    by_label = {label: gh for label, gh in by_label.items() if gh[1]}
    classes = [(g, h, False) for g, h in by_label.values()]
    leaf_pairs = list(zip(leaves_r, leaves_p)) if leaves_r is not None else []

    def key_p(w: int) -> Hashable:
        return (
            None if allowed is None else tuple((row >> w) & 1 for row in allowed),
            tuple(counts_p[w] for _, counts_p in leaf_pairs),
        )

    twins_p = _twin_masks(labels_p, adj_p, key_p, by_label)
    twinned_p = 0
    for w, mask in enumerate(twins_p):
        if mask & (mask - 1):
            twinned_p |= 1 << w
    # Reactant nodes by bond count, fewest first, for the branch node.
    by_degree: dict[int, int] = {}
    for v, mask in enumerate(adj_r):
        degree = (mask & ~(1 << v)).bit_count()
        by_degree[degree] = by_degree.get(degree, 0) | 1 << v
    degree_masks = [by_degree[degree] for degree in sorted(by_degree)]
    # (R[k], P[k]) per folded label and k >= 1, for the bound; a level
    # empty on either side adds nothing and is left out.
    levels = [
        level
        for counts_r, counts_p in leaf_pairs
        for level in zip(_at_least(counts_r), _at_least(counts_p))
    ]

    # Nothing below the floor is found; without one the empty mapping is.
    best: Cell = None
    best_weight = floor
    found = floor <= 0
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

    # Each entry is a search node: its classes, its weight and its mapping.
    # Children are pushed so that they pop depth first, candidates in
    # ascending order and the unmatched branch last.
    stack: list[tuple[list[tuple[int, int, bool]], int, Cell]] = [(classes, 0, None)]
    while stack:
        current, weight, mapping = stack.pop()
        # The sorted key of the best mapping is built only when a mapping
        # of equal weight has to be compared with it.
        if weight > best_weight or weight == best_weight and not found:
            best = mapping
            best_weight = weight
            best_key = None
            found = True
        elif weight == best_weight:
            key = sorted(_pairs(mapping))
            if best_key is None:
                best_key = sorted(_pairs(best))
            if key < best_key:
                best, best_key = mapping, key
        # One pass sums the bound and picks the eligible class with the
        # fewest nodes on its wider side, ties to the lowest reactant node.
        # Classes are disjoint, so the key is unique and their order in the
        # list never matters.
        bound = weight
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
            if adjacent or mapping is None:
                key = (wide, g & -g)
                if chosen_key is None or key < chosen_key:
                    chosen, chosen_key = cls, key
        if chosen is None:
            continue
        # The leaves the classes can still match, summed only while the
        # bound so far would prune.
        if bound < best_weight and levels:
            for g, h, _ in current:
                for row, col in levels:
                    count_g = (g & row).bit_count()
                    count_h = (h & col).bit_count()
                    bound += count_g if count_g < count_h else count_h
        if bound < best_weight:
            continue
        g, h, adjacent = chosen
        # The node with the fewest bonds, or the lowest where a twin prune
        # may skip candidates.
        fewest = g
        if not h & twinned_p:
            for mask in degree_masks:
                fewest = g & mask
                if fewest:
                    break
        v_bit = fewest & -fewest
        v = v_bit.bit_length() - 1
        # Leave v unmatched.
        remainder = [cls for cls in current if cls is not chosen]
        rest = g & ~v_bit
        if rest:
            remainder.append((rest, h, adjacent))
        stack.append((remainder, weight, mapping))
        # Match v to the first candidate of each product twin group in turn,
        # in ascending order.
        children = []
        candidates = h if allowed is None else h & allowed[v]
        while candidates:
            w = (candidates & -candidates).bit_length() - 1
            candidates &= ~twins_p[w]
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(
                    f"common-subgraph search exceeded {budget} pair expansions"
                )
            gain = 1
            for counts_r, counts_p in leaf_pairs:
                gain += min(counts_r[v], counts_p[w])
            children.append((refine(current, v, w), weight + gain, ((v, w), mapping)))
        stack.extend(reversed(children))
    return (sorted(_pairs(best)) if found else []), expansions


# There is one kernel, in pure Python.  The benchmark harness
# (perfbench/run.py, record.py and kernel_suite.py) still imports these two
# names to label and cross-check the kernel it times.
BACKEND = "python"
pure_python_kernel = max_common_connected_subgraph
