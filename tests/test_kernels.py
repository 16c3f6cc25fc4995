import hashlib
import random
import sys

import pytest

from conftest import (
    alkene_dimerization,
    all_atom_kernel_input,
    hydrogen_decorated_pair,
    random_allowed,
    random_attributed_pair,
    ua_dimerization,
)
from templater import conserved_mapping
from templater.errors import BudgetExceeded
from templater.kernels import max_common_connected_subgraph


def test_single_compatible_pair():
    pairs, _ = max_common_connected_subgraph([0], [0], [0], [0], 1000)
    assert pairs == [(0, 0)]


def test_no_compatible_label_returns_empty():
    pairs, expansions = max_common_connected_subgraph([0], [1], [0], [0], 1000)
    assert pairs == []
    assert expansions == 0


def test_budget_exceeded_raises():
    labels = [0] * 8
    masks = [0] * 8
    for i in range(8):
        for j in range(i + 1, 8):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    with pytest.raises(BudgetExceeded):
        max_common_connected_subgraph(labels, labels, masks, masks, 50)


def test_long_path_maps_whole_without_recursion_error():
    # A 1,200-pair mapping is deeper than Python's default recursion limit
    # of 1,000.  The search must neither raise the limit nor need a higher
    # one: it also runs with the limit just above the caller's depth.
    n = 1200
    labels = [i % 3 for i in range(n)]
    masks = [(1 << i - 1 if i else 0) | (1 << i + 1 if i < n - 1 else 0) for i in range(n)]
    limit = sys.getrecursionlimit()
    pairs, _ = max_common_connected_subgraph(labels, labels, masks, masks, 10**7)
    assert pairs == [(i, i) for i in range(n)]
    assert sys.getrecursionlimit() == limit
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 10)
    try:
        pairs, _ = max_common_connected_subgraph(labels, labels, masks, masks, 10**7)
    finally:
        sys.setrecursionlimit(limit)
    assert pairs == [(i, i) for i in range(n)]


def test_lexicographic_tie_break():
    # Two disjoint compatible pairs; the smallest pair list must win.
    labels = [0, 0]
    masks = [0, 0]
    pairs, _ = max_common_connected_subgraph(labels, labels, masks, masks, 1000)
    assert pairs == [(0, 0)]


def test_result_is_connected_induced_and_label_preserving():
    rng = random.Random(4242)
    for _ in range(120):
        labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng)
        pairs, _ = max_common_connected_subgraph(labels_r, labels_p, adj_r, adj_p, 10**7)
        image = dict(pairs)
        assert len(set(image.values())) == len(image)
        for v, w in pairs:
            assert labels_r[v] == labels_p[w]
        for v, w in pairs:
            for u, x in pairs:
                assert bool((adj_r[v] >> u) & 1) == bool((adj_p[w] >> x) & 1)
        if len(pairs) > 1:
            seen = {pairs[0][0]}
            frontier = [pairs[0][0]]
            members = set(image)
            while frontier:
                node = frontier.pop()
                for other in members:
                    if other not in seen and (adj_r[node] >> other) & 1:
                        seen.add(other)
                        frontier.append(other)
            assert seen == members


def folded_side(labels, adj, leaf, mark):
    """A kernel-form side with label ``leaf`` folded into counts: its nodes
    lose their edges and take the label ``mark``, which the other side
    lacks, and every node counts its neighbours of label ``leaf``."""
    leaves = sum(1 << u for u, label in enumerate(labels) if label == leaf)
    return (
        [mark if label == leaf else label for label in labels],
        [0 if leaves >> v & 1 else mask & ~leaves for v, mask in enumerate(adj)],
        [(mask & leaves).bit_count() for mask in adj],
    )


def test_floor_keeps_every_result_that_reaches_it():
    # A floor up to the best weight returns the same pairs for no more
    # expansions; one above it returns none.
    rng = random.Random(2718)
    for i in range(200):
        if i % 2:
            labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng)
            case = (labels_r, labels_p, adj_r, adj_p, 10**7, None, None, None)
            counts_r, counts_p = [0] * len(labels_r), [0] * len(labels_p)
        else:
            labels_r, adj_r, labels_p, adj_p = hydrogen_decorated_pair(rng)
            labels_r, adj_r, counts_r = folded_side(labels_r, adj_r, 2, -1)
            labels_p, adj_p, counts_p = folded_side(labels_p, adj_p, 2, -2)
            case = (labels_r, labels_p, adj_r, adj_p, 10**7, None, [counts_r], [counts_p])
        pairs, spent = max_common_connected_subgraph(*case)
        best = sum(1 + min(counts_r[v], counts_p[w]) for v, w in pairs)
        for floor in range(1, best + 1):
            floored, floored_spent = max_common_connected_subgraph(*case, floor)
            assert floored == pairs and floored_spent <= spent
        assert max_common_connected_subgraph(*case, best + 1)[0] == []


# The search order (which class branches first, the order of its product
# candidates, which twins are skipped) decides the expansion count, and with
# it which of several equally good pair lists is met first.  These tables pin
# the exact (expansions, pairs) of each input, so a change of that order
# shows even where the result stays a maximum.


def _pinned_input(kind, seed, with_allowed):
    rng = random.Random(seed)
    if kind == "attributed":
        labels_r, adj_r, labels_p, adj_p = random_attributed_pair(rng, max_nodes=16, labels=2)
    else:
        labels_r, adj_r, labels_p, adj_p = hydrogen_decorated_pair(rng, max_heavy=6)
    allowed = random_allowed(rng, len(labels_r), len(labels_p)) if with_allowed else None
    return labels_r, labels_p, adj_r, adj_p, 10**7, allowed


# (generator, seed, with allowed, expansions, pairs)
PINNED_RANDOM = [
    ("attributed", 0, False, 1335,
     [(0, 13), (1, 14), (2, 5), (3, 0), (6, 10), (8, 9), (10, 6), (12, 12)]),
    ("attributed", 1, False, 13, [(0, 5), (3, 6)]),
    ("attributed", 2, False, 4, [(0, 2)]),
    ("attributed", 3, False, 9, [(0, 0), (1, 1)]),
    ("attributed", 4, False, 77, [(0, 4), (1, 9), (2, 2), (3, 7), (5, 0)]),
    ("attributed", 5, False, 275, [(0, 1), (1, 9), (2, 3), (4, 6), (8, 4)]),
    ("attributed", 6, False, 17, [(0, 0), (1, 10)]),
    ("attributed", 7, False, 351, [(0, 11), (1, 3), (2, 0), (5, 12), (6, 4), (7, 1), (9, 5)]),
    ("attributed", 0, True, 440, [(1, 9), (2, 0), (3, 5), (6, 3), (9, 11), (11, 14), (12, 4)]),
    ("attributed", 1, True, 12, [(0, 3)]),
    ("attributed", 2, True, 4, [(0, 2)]),
    ("attributed", 3, True, 7, [(0, 0), (1, 1)]),
    ("attributed", 4, True, 35, [(0, 1), (5, 0)]),
    ("attributed", 5, True, 44, [(0, 1), (2, 8), (5, 10), (7, 5), (8, 3)]),
    ("attributed", 6, True, 9, [(0, 0)]),
    ("attributed", 7, True, 250, [(1, 10), (2, 1), (5, 12), (6, 14), (8, 11), (9, 5), (10, 3)]),
    ("hydrogen", 0, False, 38, [(0, 5), (2, 4), (3, 6), (4, 1), (5, 10), (6, 3), (7, 11)]),
    ("hydrogen", 1, False, 13, [(0, 1), (1, 3), (2, 9), (3, 2), (4, 4), (5, 6), (6, 7), (7, 8)]),
    ("hydrogen", 2, False, 1, [(0, 3)]),
    ("hydrogen", 3, False, 15, [(0, 0), (1, 14), (3, 8)]),
    ("hydrogen", 4, False, 5, [(0, 0), (2, 2)]),
    ("hydrogen", 5, False, 30, [(0, 0), (1, 1), (2, 5), (5, 4), (6, 2), (8, 6), (11, 3)]),
    ("hydrogen", 6, False, 6, [(1, 1), (3, 0)]),
    ("hydrogen", 7, False, 2, [(1, 0)]),
    ("hydrogen", 0, True, 33, [(0, 5), (2, 4), (3, 6), (4, 1), (6, 3), (7, 10)]),
    ("hydrogen", 1, True, 24, [(0, 1), (1, 3), (2, 9), (3, 2), (5, 6), (6, 7), (7, 8)]),
    ("hydrogen", 2, True, 1, [(0, 3)]),
    ("hydrogen", 3, True, 17, [(0, 14), (1, 0), (3, 8)]),
    ("hydrogen", 4, True, 6, [(0, 1), (2, 2)]),
    ("hydrogen", 5, True, 28, [(0, 0), (11, 3), (12, 5)]),
    ("hydrogen", 6, True, 6, [(1, 1), (3, 0)]),
    ("hydrogen", 7, True, 1, [(3, 0)]),
]


def test_search_pinned_on_random_pairs():
    got = []
    for kind, seed, with_allowed, _, _ in PINNED_RANDOM:
        case = _pinned_input(kind, seed, with_allowed)
        pairs, expansions = max_common_connected_subgraph(*case)
        got.append((kind, seed, with_allowed, expansions, pairs))
    assert got == PINNED_RANDOM


def _digest(pairs):
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


# Atom-order seed of the n=7 alkene dimerization -> (pair count, expansions,
# digest of the pair list) of every kernel call that iterate_conserved makes.
# The hydrogens fold into leaf counts, so each call searches the carbon
# skeleton and returns 5 carbon pairs; their hydrogens make up the other 11
# of the 16 conserved pairs per molecule.  The second molecule's search in
# iteration 1 makes no call: its count bound, 16 pairs, cannot beat the
# first molecule's 16.
PINNED_ALKENE = {
    0: [
        (5, 29, "11801fac1faecb4c"),
        (5, 55, "f85b60a5da4bb43c"),
    ],
    1: [
        (5, 63, "6dd0bfb391b88a91"),
        (5, 39, "36a1f915d8b026e5"),
    ],
    2: [
        (5, 78, "d6c4a14c5b4e4970"),
        (5, 61, "b67e1b44b26f2619"),
    ],
    3: [
        (5, 72, "75cd4f9db19b9620"),
        (5, 45, "e5414c29cbd9e1a1"),
    ],
}


def test_search_pinned_on_alkene_dimerization(monkeypatch):
    calls = []

    def recording(*args):
        pairs, expansions = max_common_connected_subgraph(*args)
        calls.append((len(pairs), expansions, _digest(pairs)))
        return pairs, expansions

    monkeypatch.setattr(conserved_mapping, "max_common_connected_subgraph", recording)
    got = {}
    for seed in PINNED_ALKENE:
        calls.clear()
        conserved_mapping.iterate_conserved(*alkene_dimerization(7, random.Random(seed)))
        got[seed] = list(calls)
    assert got == PINNED_ALKENE


def test_single_leaves_keep_the_all_atom_kernel_calls(monkeypatch):
    # United-atom chains have one leaf per chain end and no atom with two
    # leaves of a label, so nothing folds: every kernel call gets the whole
    # restricted problem, exactly as the all-atom search builds it, no leaf
    # counts and the search's floor.  The second chain's search in
    # iteration 1 cannot beat the first chain and makes no call.
    searches, calls = [], []
    search = conserved_mapping._search

    def recording_search(side_r, side_p, budget, required, floor):
        searches.append((
            side_r.graph, side_p.graph, set(side_r.nodes), set(side_p.nodes), budget,
            dict(required), floor,
        ))
        return search(side_r, side_p, budget, required, floor)

    def recording_kernel(*args):
        calls.append(args)
        return max_common_connected_subgraph(*args)

    monkeypatch.setattr(conserved_mapping, "_search", recording_search)
    monkeypatch.setattr(conserved_mapping, "max_common_connected_subgraph", recording_kernel)
    for seed in range(2):
        mapping = conserved_mapping.iterate_conserved(*ua_dimerization(12, random.Random(seed)))
        assert len(mapping.pairs) == 20
    expected = []
    for g_r, g_p, include_r, include_p, budget, required, floor in searches:
        labels_r, labels_p, adj_r, adj_p, allowed = all_atom_kernel_input(
            g_r, g_p, include_r, include_p, required
        )
        if set(labels_r) & set(labels_p):
            expected.append((labels_r, labels_p, adj_r, adj_p, budget, allowed, None, None, floor))
    assert len(calls) == 4
    assert calls == expected
