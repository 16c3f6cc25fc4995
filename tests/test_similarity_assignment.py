import copy
import itertools
import logging
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import (
    CASE_STUDIES,
    alkene_c1,
    alkene_dimerization,
    bond_edits,
    make_graph,
    make_topology,
    ring_opening,
    ua_dimerization,
)
from templater import similarity_assignment
from templater.cli import RunConfig, run_stages
from templater.conserved_mapping import (
    ANCHORED,
    SIMILARITY,
    iterate_conserved,
    validate_mapping,
)
from templater.reaction_analysis import build_report
from templater.graph_core import UnifiedGraph, build_unified_graph
from templater.similarity_assignment import (
    ScoringWeights,
    SimilarityMatrix,
    _linear_sum_assignment,
    assign_similarity,
    build_similarity_matrix,
    similarity_csv,
    similarity_score,
    solve_assignment,
)

C = 12.011
H = 1.008
MASSES = {1: C, 2: 15.999, 3: H, 4: 14.007}


def similarity_score_oracle(v_r, v_p, g_reac, g_prod, weights=ScoringWeights()):
    """Straight-line reimplementation of the scoring formula."""
    from collections import Counter

    shells_r = g_reac.shells(v_r)
    shells_p = g_prod.shells(v_p)
    d = max(1, min(len(shells_r) - 1, len(shells_p) - 1))
    dt = 1.0 if g_reac.nodes[v_r].type_id == g_prod.nodes[v_p].type_id else 0.0
    dm = 1.0 if g_reac.nodes[v_r].mass == g_prod.nodes[v_p].mass else 0.0
    score = 0.0
    for k in range(1, d + 1):
        sr = shells_r[k] if k < len(shells_r) else ()
        sp = shells_p[k] if k < len(shells_p) else ()
        tr = Counter(g_reac.nodes[n].type_id for n in sr)
        tp = Counter(g_prod.nodes[n].type_id for n in sp)
        mr = Counter(g_reac.nodes[n].mass for n in sr)
        mp = Counter(g_prod.nodes[n].mass for n in sp)
        np_overlap = sum(min(c, tp[t]) for t, c in tr.items())
        nm_overlap = sum(min(c, mp[m]) for m, c in mr.items())
        denom = max(len(sr), len(sp), 1)
        score += weights.alpha * dt + weights.beta * dm
        score += weights.gamma * (np_overlap + nm_overlap) / denom
    return score


def _shell_overlap(
    g_a: UnifiedGraph, shell_a: tuple[int, ...], g_b: UnifiedGraph, shell_b: tuple[int, ...]
) -> tuple[int, int]:
    """Multiset intersection sizes of the type and mass populations."""
    types_a = Counter(g_a.nodes[n].type_id for n in shell_a)
    types_b = Counter(g_b.nodes[n].type_id for n in shell_b)
    masses_a = Counter(g_a.nodes[n].mass for n in shell_a)
    masses_b = Counter(g_b.nodes[n].mass for n in shell_b)
    n_type = sum(min(count, types_b[t]) for t, count in types_a.items())
    n_mass = sum(min(count, masses_b[m]) for m, count in masses_a.items())
    return n_type, n_mass


def similarity_score_reference(
    v_r: int,
    v_p: int,
    g_reac: UnifiedGraph,
    g_prod: UnifiedGraph,
    weights: ScoringWeights = ScoringWeights(),
) -> float:
    """The scalar scorer the matrix replaced, one pair and one depth at a
    time (see ``build_similarity_matrix``): every cell must equal it exactly."""
    shells_r = g_reac.shells(v_r)
    shells_p = g_prod.shells(v_p)
    depth = max(1, min(len(shells_r), len(shells_p)) - 1)
    node_r = g_reac.nodes[v_r]
    node_p = g_prod.nodes[v_p]
    delta_t = 1.0 if node_r.type_id == node_p.type_id else 0.0
    delta_m = 1.0 if node_r.mass == node_p.mass else 0.0

    total = 0.0
    for k in range(1, depth + 1):
        shell_r = shells_r[k] if k < len(shells_r) else ()
        shell_p = shells_p[k] if k < len(shells_p) else ()
        n_type, n_mass = _shell_overlap(g_reac, shell_r, g_prod, shell_p)
        overlap = (n_type + n_mass) / max(len(shell_r), len(shell_p), 1)
        total += (
            weights.alpha * delta_t
            + weights.beta * delta_m
            + weights.gamma * overlap
        )
    return total


# Masses equal to type ids (and shared by two types): a type and a mass
# that compare equal must still count as different labels.
TYPE_VALUED_MASSES = {1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0}


def random_forest_topology(rng, n_atoms, masses):
    """One molecule whose atoms are tied into trees; some stay isolated."""
    atoms = [(i, rng.randint(1, 4), 0.0) for i in range(1, n_atoms + 1)]
    bonds = [(rng.randint(1, i - 1), i) for i in range(2, n_atoms + 1) if rng.random() < 0.7]
    return make_topology(atoms, bonds, masses)


def multi_molecule_pairs(rng):
    """Sides of one to three molecules, with isolated atoms and varied weights."""
    weights = [ScoringWeights(), ScoringWeights(0.3, 0.3, 0.4), ScoringWeights(0.1, 0.7, 0.2)]
    pairs = []
    for trial in range(30):
        masses = (MASSES, TYPE_VALUED_MASSES)[trial % 2]
        sides = [
            build_unified_graph(
                [
                    random_forest_topology(rng, rng.randint(1, 8), masses)
                    for _ in range(rng.randint(1, 3))
                ],
                side,
            )
            for side in ("reactant", "product")
        ]
        pairs.append((*sides, weights[trial % len(weights)]))
    return pairs


def case_study_pairs():
    pairs = []
    for reactants, products in CASE_STUDIES.values():
        state = run_stages(RunConfig(reactants=reactants, products=products), through="graphs")
        pairs.append((state.g_reac, state.g_prod, ScoringWeights()))
    return pairs


class TestScoringWeights:
    def test_defaults_normalized(self):
        assert ScoringWeights().is_normalized

    def test_rescale(self):
        w = ScoringWeights(2.0, 1.0, 1.0).normalized()
        assert (w.alpha, w.beta, w.gamma) == (0.5, 0.25, 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScoringWeights(-0.1, 0.6, 0.5).normalized()

    @pytest.mark.parametrize(
        "weights",
        [(math.inf, 0.25, 0.25), (math.nan, 0.25, 0.25), (0.5, -math.inf, 0.25), (1e308, 1e308, 0.0)],
    )
    def test_non_finite_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            ScoringWeights(*weights).normalized()


class TestSimilarityScore:
    def test_isolated_same_type_and_mass(self):
        g1 = make_graph([(1, 1, 0.0)], [], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0)], [], MASSES, "product")
        assert similarity_score(1, 1, g1, g2) == 0.75

    def test_isolated_all_different(self):
        g1 = make_graph([(1, 1, 0.0)], [], MASSES, "reactant")
        g2 = make_graph([(1, 2, 0.0)], [], MASSES, "product")
        assert similarity_score(1, 1, g1, g2) == 0.0

    def test_score_bounds_empty_shells(self):
        same_mass = {1: C, 2: C, 3: H}
        observed = set()
        for t_r, t_p, m_p in [(1, 1, 2), (1, 2, 2), (1, 1, 1), (1, 3, 3)]:
            g1 = make_graph([(1, t_r, 0.0)], [], same_mass, "reactant")
            g2 = make_graph([(1, t_p, 0.0)], [], same_mass, "product")
            observed.add(similarity_score(1, 1, g1, g2))
        assert observed <= {0.0, 0.25, 0.5, 0.75}
        assert 0.75 in observed

    def test_matches_straight_line_oracle(self):
        rng = random.Random(17)
        graph_pairs = []
        for _ in range(40):
            n = rng.randint(2, 9)
            bonds = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
            atoms = [(i, rng.randint(1, 4), 0.0) for i in range(1, n + 1)]
            g1 = make_graph(atoms, bonds, MASSES, "reactant")
            m = rng.randint(2, 9)
            bonds_p = [(rng.randint(1, i - 1), i) for i in range(2, m + 1)]
            atoms_p = [(i, rng.randint(1, 4), 0.0) for i in range(1, m + 1)]
            g2 = make_graph(atoms_p, bonds_p, MASSES, "product")
            graph_pairs.append((g1, g2, ScoringWeights()))
        graph_pairs += multi_molecule_pairs(random.Random(23))
        graph_pairs += case_study_pairs()
        for g1, g2, weights in graph_pairs:
            matrix = build_similarity_matrix(g1, g2, set(g1.nodes), set(g2.nodes), weights)
            assert matrix.scores.shape == (len(g1.nodes), len(g2.nodes))
            for i, v_r in enumerate(matrix.rows):
                for j, v_p in enumerate(matrix.cols):
                    score = similarity_score_reference(v_r, v_p, g1, g2, weights)
                    assert score == pytest.approx(
                        similarity_score_oracle(v_r, v_p, g1, g2, weights), abs=1e-12
                    )
                    assert matrix.scores[i, j] == score
                    assert similarity_score(v_r, v_p, g1, g2, weights) == score

    def test_exact_in_depth_blocks_and_small_counts(self):
        """Cells summed over blocks of depths, from counts held in the
        smallest unsigned dtype: united-atom chains (96- and 320-site
        products, 4 x 4 matrices of 47 depths in one block and of 159 depths
        in 3 blocks), the tail-12 ring opening (7 x 7, 14 depths in blocks of
        13 and 1 whose overlaps are not dyadic, so that summing a block in
        another order changes 28 cells), the fully retyped n = 8 and 16
        (nothing conserved, one depth per block, uint8 counts) at two atom
        orders each, and a hub whose 300 hydrogens need uint16 counts."""
        systems = [
            ua_dimerization(n, random.Random(seed)) for n in (48, 160) for seed in range(2)
        ]
        systems += [ring_opening(12, random.Random(seed)) for seed in range(2)]
        systems += [
            alkene_dimerization(n, random.Random(seed), n + 1) for n in (8, 16) for seed in range(2)
        ]
        for g_reac, g_prod in systems:
            rows, cols = iterate_conserved(g_reac, g_prod).unmapped()
            matrix = build_similarity_matrix(g_reac, g_prod, rows, cols)
            for i, v_r in enumerate(matrix.rows):
                for j, v_p in enumerate(matrix.cols):
                    assert matrix.scores[i, j] == similarity_score_reference(v_r, v_p, g_reac, g_prod)
        hub = [(1, 1, 0.0)] + [(i, 3, 0.0) for i in range(2, 302)]
        spokes = [(1, i) for i in range(2, 302)]
        g_reac = make_graph(hub, spokes, MASSES, "reactant")
        g_prod = make_graph(hub[:-1] + [(301, 2, 0.0)], spokes, MASSES, "product")
        matrix = build_similarity_matrix(g_reac, g_prod, {1, 2}, {1, 301})
        for i, v_r in enumerate(matrix.rows):
            for j, v_p in enumerate(matrix.cols):
                assert matrix.scores[i, j] == similarity_score_reference(v_r, v_p, g_reac, g_prod)

    def test_symmetric_overlap(self):
        g1 = make_graph([(1, 1, 0.0), (2, 3, 0.0)], [(1, 2)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)], [(1, 2), (1, 3)], MASSES, "product")
        matrix_fwd = build_similarity_matrix(g1, g2, {1}, {1})
        # recompute with roles conceptually flipped via the oracle
        assert matrix_fwd.scores[0, 0] == pytest.approx(
            similarity_score_oracle(1, 1, g1, g2), abs=1e-12
        )


def score_matrix(scores, rows=None, cols=None):
    scores = np.array(scores, dtype=float)
    rows = list(range(scores.shape[0])) if rows is None else rows
    cols = list(range(scores.shape[1])) if cols is None else cols
    return SimilarityMatrix(rows=rows, cols=cols, scores=scores)


class TestCostMatrix:
    """The costs ``solve_assignment`` hands the solver: negated scores, min-max
    normalized into [0, 1]."""

    def _costs(self, monkeypatch, scores):
        seen = []

        def recording(entries):
            seen.append(entries)
            return _linear_sum_assignment(entries)

        monkeypatch.setattr(similarity_assignment, "_linear_sum_assignment", recording)
        solve_assignment(score_matrix(scores))
        return seen[0]

    def test_min_max_algebra(self, monkeypatch):
        costs = self._costs(monkeypatch, [[2.0, 0.0], [0.0, 2.0]])
        assert costs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_constant_matrix_all_zero(self, monkeypatch):
        costs = self._costs(monkeypatch, [[1.5, 1.5], [1.5, 1.5]])
        assert costs.shape == (2, 2)
        assert not costs.any()

    def test_one_by_one(self, monkeypatch):
        costs = self._costs(monkeypatch, [[3.0]])
        assert costs.tolist() == [[0.0]]


class TestSolveAssignment:
    def test_simple_two_by_two(self):
        matrix = score_matrix([[1.0, 0.0], [0.0, 1.0]], rows=[1, 2], cols=[1, 2])
        pairs = solve_assignment(matrix)
        assert pairs == [(1, 1), (2, 2)]

    def test_rectangular_contract(self):
        scores = -np.array([[0.1, 0.2], [0.3, 0.4], [0.0, 0.9]])
        pairs = solve_assignment(score_matrix(scores, rows=[10, 20, 30], cols=[1, 2]))
        assert len(pairs) == 2
        assert len({10, 20, 30} - {r for r, _ in pairs}) == 1
        assert {p for _, p in pairs} == {1, 2}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        matrix = score_matrix([[0.0, 1.0, 0.5], [1.0, bad, 0.0]], rows=[1, 2], cols=[1, 2, 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                solve_assignment(matrix)
        with pytest.raises(ValueError, match="finite"):
            _linear_sum_assignment(np.full((3, 2), bad))

    def test_brute_force_permutation_oracle(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randint(2, 7)
            entries = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
            row_ind, col_ind = _linear_sum_assignment(entries)
            total = sum(entries[i, j] for i, j in zip(row_ind, col_ind))
            best = min(
                sum(entries[i, perm[i]] for i in range(n))
                for perm in itertools.permutations(range(n))
            )
            assert total == pytest.approx(best, abs=1e-12)

    def test_matches_scipy_indices_exactly(self):
        # The port must pick scipy's optimum among ties, so the inputs are
        # tie-heavy: small integers, floats rounded to 0.1 and row-constant
        # blocks plus a column offset, next to uniform floats.
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(4242)

        def draw(kind, n_rows, n_cols):
            if kind == "uniform":
                return [[rng.random() for _ in range(n_cols)] for _ in range(n_rows)]
            if kind == "small-int":
                return [[float(rng.randint(0, 2)) for _ in range(n_cols)] for _ in range(n_rows)]
            if kind == "tenths":
                return [[round(rng.random(), 1) for _ in range(n_cols)] for _ in range(n_rows)]
            row_level = [rng.choice((0.0, 0.5, 1.0)) for _ in range(n_rows)]
            col_offset = [rng.choice((0.0, 0.25)) for _ in range(n_cols)]
            return [[row_level[i] + col_offset[j] for j in range(n_cols)] for i in range(n_rows)]

        kinds = ("uniform", "small-int", "tenths", "blocks")
        for case in range(4000):
            n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
            entries = np.array(draw(kinds[case % 4], n_rows, n_cols))
            want_rows, want_cols = linear_sum_assignment(entries)
            assert _linear_sum_assignment(entries) == (want_rows.tolist(), want_cols.tolist()), (
                case, entries.tolist()
            )

    def test_scale_invariance_of_pairing(self):
        rng = random.Random(55)
        for scale in (2.0, 4.0, 0.5, 3.7):
            scores = np.array([[rng.random() for _ in range(5)] for _ in range(5)])
            assert solve_assignment(score_matrix(scores)) == solve_assignment(
                score_matrix(scores * scale)
            )


# Retyped copies of carbon and hydrogen (same mass, new type id), as a force
# field assigns near a reaction site: they keep atoms out of the conserved
# search, so the anchored rounds have to place them.
SCENARIO_MASSES = {**MASSES, 5: C, 6: H}
RING_BONDS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (4, 8)]

# name: (reactant (atoms as (id, type), bonds), product likewise, the
# product ids each reactant id may map onto, minimal bond edits)
SCENARIOS = {
    # A para-substituted 6-ring whose ring atoms are all retyped: the two
    # ring halves between the substituents 7 and 8 are interchangeable.
    # The substituents keep their types but share no bond, so nothing is
    # conserved and a seed starts the map.
    "para-ring": (
        ([(i, 1) for i in range(1, 7)] + [(7, 2), (8, 4)], RING_BONDS),
        ([(i, 5) for i in range(1, 7)] + [(7, 2), (8, 4)], RING_BONDS),
        {1: {1}, 4: {4}, 7: {7}, 8: {8}},
        (0, 0),
    ),
    # C-O-N with the carbon retyped: one answer, no symmetry.
    "asymmetric": (
        ([(1, 1), (2, 2), (3, 4)], [(1, 2), (2, 3)]),
        ([(1, 5), (2, 2), (3, 4)], [(1, 2), (2, 3)]),
        {1: {1}, 2: {2}, 3: {3}},
        (0, 0),
    ),
    # H2 sits on carbon 1; the product gives carbon 1 a second hydrogen, and
    # every hydrogen is retyped, so H2 must not stray onto nitrogen 3's H4.
    "stray-hydrogen": (
        ([(1, 1), (2, 3), (3, 4), (4, 3)], [(1, 2), (1, 3), (3, 4)]),
        ([(1, 1), (2, 6), (3, 4), (4, 6), (5, 6)], [(1, 2), (1, 3), (3, 4), (1, 5)]),
        {1: {1}, 2: {2, 5}, 3: {3}, 4: {4}},
        (0, 1),
    ),
    # O-CH2-CH2-N with retyped hydrogens: each CH2's hydrogens must land on
    # its own image, not crosswise on the other CH2.
    "crosswise-ch2": (
        (
            [(1, 2), (2, 1), (3, 1), (4, 4), (5, 3), (6, 3), (7, 3), (8, 3)],
            [(1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (3, 7), (3, 8)],
        ),
        (
            [(1, 2), (2, 1), (3, 1), (4, 4), (5, 6), (6, 6), (7, 6), (8, 6)],
            [(1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (3, 7), (3, 8)],
        ),
        {2: {2}, 3: {3}, 5: {5, 6}, 6: {5, 6}, 7: {7, 8}, 8: {7, 8}},
        (0, 0),
    ),
    # A CH2 whose carbon is retyped and gains a hydrogen: its hydrogens keep
    # their type but share no bond, so nothing is conserved, and the
    # similarity stage maps every atom.
    "conserved-hydrogens": (
        ([(1, 1), (2, 3), (3, 3)], [(1, 2), (1, 3)]),
        ([(1, 5), (2, 3), (3, 3), (4, 3)], [(1, 2), (1, 3), (1, 4)]),
        {1: {1}},
        (0, 1),
    ),
    # No hydrogen at all: the conserved search maps every reactant atom and
    # the assignment has nothing left to do.
    "no-hydrogens": (
        ([(1, 1), (2, 2)], [(1, 2)]),
        ([(1, 1), (2, 2), (3, 2)], [(1, 2), (1, 3)]),
        {1: {1}, 2: {2, 3}},
        (0, 1),
    ),
}


def scenario_graphs(name, rng=None):
    """Graphs of a scenario, with the product ids shuffled by rng when one
    is given, and the product gid that each listed product id became."""
    (r_atoms, r_bonds), (p_atoms, p_bonds), _, _ = SCENARIOS[name]
    ids = [a for a, _ in p_atoms]
    shuffled = list(ids)
    if rng is not None:
        rng.shuffle(shuffled)
    gid = dict(zip(ids, shuffled))
    g_reac = make_graph([(a, t, 0.0) for a, t in r_atoms], r_bonds, SCENARIO_MASSES, "reactant")
    g_prod = make_graph(
        sorted((gid[a], t, 0.0) for a, t in p_atoms),
        [(gid[a], gid[b]) for a, b in p_bonds],
        SCENARIO_MASSES,
        "product",
    )
    return g_reac, g_prod, gid


def mapped_scenario(name, seed):
    """Map a scenario through ``iterate_conserved`` and ``assign_similarity``
    (seed 0 keeps the listed product ids, others shuffle them) and require
    its minimal bond edits and its expected pairs.  Returns the graphs, the
    conserved mapping and the result."""
    g_reac, g_prod, gid = scenario_graphs(name, random.Random(seed) if seed else None)
    conserved = iterate_conserved(g_reac, g_prod)
    mapping, _ = assign_similarity(conserved)
    _, _, expected, edits = SCENARIOS[name]
    assert bond_edits(mapping, g_reac, g_prod) == edits, (name, seed)
    for r, images in expected.items():
        assert mapping.pairs[r] in {gid[p] for p in images}, (name, seed, r)
    return g_reac, g_prod, conserved, mapping


ORDERS = range(8)


def retyped_dimerizations():
    """The alkene dimerization with every atom near the new bond retyped
    (n=5, radius 4), at four atom orders: nearly every atom reaches the
    similarity stage."""
    return [alkene_dimerization(5, random.Random(seed), retype_radius=4) for seed in range(4)]


class TestRefineSymmetricPaths:
    """Symmetric paths between mapped anchors, settled by the anchored rounds
    of ``assign_similarity``: each pair is rewarded for the bonds it keeps
    to mapped neighbours."""

    def test_edge_consistency_resolves_equivalent_paths(self):
        for seed in ORDERS:
            g_reac, g_prod, conserved, mapping = mapped_scenario("para-ring", seed)
            assert conserved.pairs == {}
            assert {mapping.provenance[r] for r in range(1, 7)} == {ANCHORED}

    def test_no_op_on_asymmetric_molecule(self):
        for seed in ORDERS:
            mapped_scenario("asymmetric", seed)

    def test_preserves_cardinality_and_conserved_pairs(self):
        for name in SCENARIOS:
            for seed in ORDERS:
                g_reac, g_prod, conserved, mapping = mapped_scenario(name, seed)
                rows, cols = conserved.unmapped()
                assert len(mapping.pairs) == len(conserved.pairs) + min(len(rows), len(cols))
                for r, p in conserved.pairs.items():
                    assert mapping.pairs[r] == p
                    assert mapping.provenance[r] == conserved.provenance[r]

    def test_idempotent(self):
        for name in SCENARIOS:
            g_reac, g_prod, _, mapping = mapped_scenario(name, 0)
            again, matrix = assign_similarity(mapping)
            assert_empty_remainder(matrix, mapping)
            assert again.pairs == mapping.pairs
            assert again.provenance == mapping.provenance

    def test_leaves_input_unchanged_and_keeps_injection(self):
        systems = [scenario_graphs(name)[:2] for name in SCENARIOS] + retyped_dimerizations()
        for g_reac, g_prod in systems:
            conserved = iterate_conserved(g_reac, g_prod)
            before = copy.deepcopy(conserved)
            mapping, _ = assign_similarity(conserved)
            assert conserved.pairs == before.pairs
            assert conserved.reverse == before.reverse
            assert conserved.provenance == before.provenance
            validate_mapping(mapping, g_reac, g_prod)
            assert mapping.reverse == {p: r for r, p in mapping.pairs.items()}
            assert mapping.provenance.keys() == mapping.pairs.keys()


def assert_empty_remainder(matrix, mapping):
    """``matrix`` is the empty matrix of ``mapping``'s unmapped remainder."""
    rows, cols = mapping.unmapped()
    assert not rows or not cols
    assert (matrix.rows, matrix.cols) == (sorted(rows), sorted(cols))
    assert matrix.scores.shape == (len(rows), len(cols))


class TestSwapHydrogens:
    """Interchangeable hydrogens, placed on the right heavy atom by the
    anchored rounds of ``assign_similarity``."""

    def test_unequal_neighborhoods_reassign_strays(self):
        for seed in ORDERS:
            mapped_scenario("stray-hydrogen", seed)

    def test_idempotent(self):
        for seed in ORDERS:
            g_reac, g_prod, _, mapping = mapped_scenario("crosswise-ch2", seed)
            again, _ = assign_similarity(mapping)
            assert again.pairs == mapping.pairs

    def test_never_touches_conserved(self):
        # The O-C-C-N backbone is conserved; its retyped hydrogens are not.
        for seed in ORDERS:
            _, _, conserved, mapping = mapped_scenario("crosswise-ch2", seed)
            assert sorted(conserved.pairs) == [1, 2, 3, 4]
            assert all(mapping.pairs[r] == p for r, p in conserved.pairs.items())
        for seed in ORDERS:
            _, _, conserved, _ = mapped_scenario("conserved-hydrogens", seed)
            assert conserved.pairs == {}

    def test_no_hydrogens_no_op(self):
        g_reac, g_prod, _ = scenario_graphs("no-hydrogens")
        conserved = iterate_conserved(g_reac, g_prod)
        mapping, matrix = assign_similarity(conserved)
        assert_empty_remainder(matrix, conserved)
        assert mapping.pairs == conserved.pairs == {1: 1, 2: 2}
        for seed in ORDERS:
            mapped_scenario("no-hydrogens", seed)


class TestAnchoredAssignment:
    def test_logs_rounds_pairs_and_seeds(self, caplog):
        caplog.set_level(logging.INFO, logger="templater")
        g_reac, g_prod, _ = scenario_graphs("para-ring")
        assign_similarity(iterate_conserved(g_reac, g_prod))
        assert caplog.messages[-2:] == [
            "similarity matrix: 8 x 8",
            "anchored assignment: 8 round(s), 7 anchored pair(s), 1 seed(s)",
        ]
        caplog.clear()
        # Nothing is conserved, so one seed starts each molecule.
        g_reac, g_prod = alkene_dimerization(5, random.Random(0), retype_radius=6)
        mapping, _ = assign_similarity(iterate_conserved(g_reac, g_prod))
        assert Counter(mapping.provenance.values()) == {ANCHORED: 28, SIMILARITY: 2}
        assert caplog.messages[-1].endswith(", 28 anchored pair(s), 2 seed(s)")


# name: (generator, atom count n, retype radius), 8 atom orders each.  The
# fully retyped family retypes every product atom (radius n + 1), so the
# conserved search finds nothing and the seeds start the map.
FAMILIES = {
    "all-atom-7": (alkene_dimerization, 7, None),
    "all-atom-12": (alkene_dimerization, 12, None),
    "all-atom-20": (alkene_dimerization, 20, None),
    "retyped-5": (alkene_dimerization, 5, 4),
    "retyped-12": (alkene_dimerization, 12, 4),
    "fully-retyped-8": (alkene_dimerization, 8, 9),
    "fully-retyped-16": (alkene_dimerization, 16, 17),
    "fully-retyped-24": (alkene_dimerization, 24, 25),
    "ua-24": (ua_dimerization, 24, None),
    "ua-96": (ua_dimerization, 96, None),
}


# Measured over 8 atom orders each: tails 1-8 without retyping and 1-5 at
# R = 3 map with (2, 2) edits; every longer tail tried gives (3, 3).
RING_OPENING_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="tails of 9 or more carbons without retyping (9-16, 32, 64 tried), and of 6 or "
    "more at R = 2-3, map with (3, 3) bond edits in 8/8 orders: an anchored round pairs an "
    "epoxide CH2 carbon with the transferred hydroxyl H, and the initiators become a ring "
    "carbon and an amine H",
)
RING_OPENINGS = [
    pytest.param(1, None, id="tail-1"),
    pytest.param(4, None, id="tail-4"),
    pytest.param(12, None, id="tail-12", marks=RING_OPENING_DEFECT),
    pytest.param(1, 3, id="tail-1-retyped-3"),
    pytest.param(4, 3, id="tail-4-retyped-3"),
    pytest.param(12, 3, id="tail-12-retyped-3", marks=RING_OPENING_DEFECT),
]


def same_mass_outside_conserved(mapping, g_reac, g_prod) -> bool:
    return all(
        g_reac.nodes[r].mass == g_prod.nodes[p].mass
        for r, p in mapping.pairs.items()
        if not mapping.is_conserved(r)
    )


class TestMinimalMaps:
    """Every map has the fewest bond edits (minimum chemical distance) and
    the true initiators."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_family(self, family):
        generator, n, radius = FAMILIES[family]
        united_atom = generator is ua_dimerization
        for seed in ORDERS:
            rng = random.Random(seed)
            g_reac, g_prod = generator(n, rng) if united_atom else generator(n, rng, radius)
            mapping, _ = assign_similarity(iterate_conserved(g_reac, g_prod))
            report = build_report(mapping)
            assert bond_edits(mapping, g_reac, g_prod) == ((0, 1) if united_atom else (0, 3)), seed
            assert set(report.initiators) == alkene_c1(g_reac), seed
            if not united_atom:
                assert same_mass_outside_conserved(mapping, g_reac, g_prod), seed

    @pytest.mark.parametrize("tail, radius", RING_OPENINGS)
    def test_ring_opening(self, tail, radius):
        """An epoxide ring opened by an amine, with H moving from N to O.

        Each molecule has two atoms that change two bonds: the ring O and
        the ring CH2 it leaves, and the N and the H it gives up.  The
        paper's rule breaks the tie by the change in centrality, which picks
        the O (either one, since the arms are symmetric) and the N.  They
        are not the two atoms that bond, which ``fix bond/react`` allows.
        """
        for seed in ORDERS:
            g_reac, g_prod = ring_opening(tail, random.Random(seed), radius)
            mapping, _ = assign_similarity(iterate_conserved(g_reac, g_prod))
            report = build_report(mapping)
            assert bond_edits(mapping, g_reac, g_prod) == (2, 2), seed
            # The diepoxide's only O atoms are its ring O, the amine's only N its N.
            assert [g_reac.nodes[g].mass for g in report.initiators] == [15.999, 14.007], seed
            assert same_mass_outside_conserved(mapping, g_reac, g_prod), seed

    def test_case_studies(self, case_states):
        pins = {
            "polyaddition": ((1, 2), {(1, 28), (2, 15)}),
            "polycondensation": ((3, 1), {(1, 7), (2, 7)}),
            "chain": ((0, 3), {(1, 1), (2, 1)}),
        }
        for name, (edits, initiators) in pins.items():
            state = case_states[name]
            assert bond_edits(state.mapping, state.g_reac, state.g_prod) == edits, name
            found = {
                (state.g_reac.nodes[g].component, state.g_reac.nodes[g].source_id)
                for g in state.report.initiators
            }
            assert found == initiators, name
            assert same_mass_outside_conserved(state.mapping, state.g_reac, state.g_prod), name


def assign_similarity_reference(mapping, weights=ScoringWeights()):
    """The anchored rounds with their frontier rebuilt from every free row
    each round, and each block read from the matrix as numpy arrays, as
    ``assign_similarity`` first grew the map.  Returns the mapping and the
    (rounds, anchored pairs, seeds) counts."""
    result = mapping.copy()
    rows, cols = result.unmapped()
    if not rows or not cols:
        return result, (0, 0, 0)
    matrix = build_similarity_matrix(result.g_reac, result.g_prod, rows, cols, weights)
    bonus = float(matrix.scores.max() - matrix.scores.min()) + 1.0

    def best_pair(block, accept=None):
        ranked = []
        for r, p in solve_assignment(block):
            i, j = block.rows.index(r), block.cols.index(p)
            if accept is None or accept[i, j]:
                ranked.append((-block.scores[i, j], r, p))
        return min(ranked)[1:] if ranked else None

    def anchored_pair():
        counts = {}
        for r in sorted(rows):
            images = [result.pairs[x] for x in result.g_reac.neighbors(r) if x in result.pairs]
            if images:
                row = counts[r] = {}
                for image in images:
                    for q in result.g_prod.neighbors(image):
                        if q not in result.reverse:
                            row[q] = row.get(q, 0) + 1
        block_rows = list(counts)
        block_cols = sorted({q for row in counts.values() for q in row})
        if not block_cols:
            return None
        anchors = np.array([[counts[r].get(q, 0) for q in block_cols] for r in block_rows])
        scores = matrix.block(block_rows, block_cols).scores + bonus * anchors
        return best_pair(SimilarityMatrix(block_rows, block_cols, scores), anchors > 0)

    rounds = anchored = seeds = 0
    while rows and cols:
        rounds += 1
        pair = anchored_pair()
        if pair is not None:
            anchored += 1
            result.add(*pair, ANCHORED)
        else:
            seeds += 1
            pair = best_pair(matrix.block(sorted(rows), sorted(cols)))
            result.add(*pair, SIMILARITY)
        rows.discard(pair[0])
        cols.discard(pair[1])
    return result, (rounds, anchored, seeds)


class TestIncrementalFrontier:
    """``assign_similarity`` keeps each round's anchor counts up to date as
    pairs are accepted; it must accept the same pairs, in the same order and
    rounds, as the rule that rebuilds them from every free row each round."""

    @staticmethod
    def check(caplog, g_reac, g_prod, weights=ScoringWeights()):
        conserved = iterate_conserved(g_reac, g_prod)
        caplog.clear()
        mapping, _ = assign_similarity(conserved, weights)
        expected, counts = assign_similarity_reference(conserved, weights)
        assert list(mapping.pairs.items()) == list(expected.pairs.items())
        assert mapping.provenance == expected.provenance
        if counts[0]:
            assert caplog.messages[-1] == (
                "anchored assignment: %d round(s), %d anchored pair(s), %d seed(s)" % counts
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_families(self, caplog, family):
        caplog.set_level(logging.INFO, logger="templater")
        generator, n, radius = FAMILIES[family]
        for seed in ORDERS:
            rng = random.Random(seed)
            graphs = generator(n, rng) if generator is ua_dimerization else generator(n, rng, radius)
            self.check(caplog, *graphs)

    def test_scenarios(self, caplog):
        caplog.set_level(logging.INFO, logger="templater")
        for name in SCENARIOS:
            for seed in ORDERS:
                self.check(caplog, *scenario_graphs(name, random.Random(seed) if seed else None)[:2])

    @pytest.mark.parametrize("tail", [1, 4, 12])
    def test_ring_openings(self, caplog, tail):
        # Tail 12 keeps the (3, 3) defect of ``RING_OPENING_DEFECT``: both
        # rules make the same map.
        caplog.set_level(logging.INFO, logger="templater")
        for radius in (None, 3):
            for seed in ORDERS:
                self.check(caplog, *ring_opening(tail, random.Random(seed), radius))

    def test_multi_molecule_pairs(self, caplog):
        caplog.set_level(logging.INFO, logger="templater")
        for seed in range(4):
            for g_reac, g_prod, weights in multi_molecule_pairs(random.Random(seed)):
                self.check(caplog, g_reac, g_prod, weights)


class TestCsvExport:
    def test_headers_are_source_ids(self):
        g1 = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "product")
        matrix = build_similarity_matrix(g1, g2, {1, 2}, {1, 2})
        text = similarity_csv(matrix, g1, g2)
        lines = text.strip().splitlines()
        assert lines[0] == ",1,2"
        assert lines[1].startswith("1,")
        assert len(lines) == 3
