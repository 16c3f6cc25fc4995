import random

import pytest

from conftest import random_attributed_pair
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
