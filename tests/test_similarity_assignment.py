import copy
import itertools
import logging
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import CASE_STUDIES, alkene_dimerization, make_graph, make_topology
from templater import similarity_assignment
from templater.cli import RunConfig, run_stages
from templater.conserved_mapping import (
    HYDROGEN_SWAPPED,
    PATH_REFINED,
    AtomMapping,
    iterate_conserved,
    validate_mapping,
)
from templater.graph_core import UnifiedGraph, build_unified_graph
from templater.similarity_assignment import (
    ScoringWeights,
    SimilarityMatrix,
    _linear_sum_assignment,
    assign_similarity,
    build_similarity_matrix,
    refine_symmetric_paths,
    similarity_csv,
    similarity_score,
    solve_assignment,
    swap_hydrogens,
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


def para_ring_system():
    """Para-substituted 6-ring with two equivalent paths between anchors.

    Atoms 1 and 4 are the substituted positions (types A and B); the ring
    halves 2-3 and 6-5 are interchangeable by symmetry.  The product is the
    same molecule with every ring atom retyped, forcing the whole ring into
    the similarity stage, anchored by two conserved substituents.
    """
    masses = {1: C, 2: 15.999, 3: 14.007, 4: C, 5: 31.0, 6: 32.0}
    reactant = make_topology(
        [(1, 1, 0.0), (2, 1, 0.0), (3, 1, 0.0), (4, 1, 0.0), (5, 1, 0.0), (6, 1, 0.0),
         (7, 5, 0.0), (8, 6, 0.0)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (4, 8)],
        {**masses, 5: 31.0, 6: 32.0},
    )
    product = make_topology(
        [(1, 4, 0.0), (2, 4, 0.0), (3, 4, 0.0), (4, 4, 0.0), (5, 4, 0.0), (6, 4, 0.0),
         (7, 5, 0.0), (8, 6, 0.0)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (4, 8)],
        {**masses, 5: 31.0, 6: 32.0},
    )
    g_reac = build_unified_graph([reactant], "reactant")
    g_prod = build_unified_graph([product], "product")
    return g_reac, g_prod


def retyped_dimerizations():
    """The alkene dimerization with every atom near the new bond retyped
    (n=5, radius 4), at four atom orders: the heaviest real input of path
    refinement, where nearly every atom reaches the similarity stage."""
    return [alkene_dimerization(5, random.Random(seed), retype_radius=4) for seed in range(4)]


def refine_oracle(mapping, g_reac, g_prod, weights=ScoringWeights()):
    """Path refinement as it was before it read the matrix.

    Every objective evaluation re-scores pairs with the scalar
    ``similarity_score_reference`` and keeps the conserved anchors'
    similarity terms.
    """

    def objective(current, nodes):
        total = 0.0
        for r in nodes:
            p = current.pairs.get(r)
            if p is None:
                continue
            total += similarity_score_reference(r, p, g_reac, g_prod, weights)
            for x in g_reac.neighbors(r):
                image = current.pairs.get(x)
                if image is not None and g_prod.has_edge(p, image):
                    total += 1.0
        return total

    result = mapping.copy()
    movable = sorted(r for r in result.pairs if not result.is_conserved(r))
    improved = True
    while improved:
        improved = False
        for i, u in enumerate(movable):
            for v in movable[i + 1 :]:
                if g_reac.nodes[u].mass != g_reac.nodes[v].mass:
                    continue
                affected = {u, v}
                affected.update(x for x in g_reac.neighbors(u) if x in result.pairs)
                affected.update(x for x in g_reac.neighbors(v) if x in result.pairs)
                before = objective(result, affected)
                image_u, image_v = result.pairs[u], result.pairs[v]
                prov_u, prov_v = result.provenance[u], result.provenance[v]
                result.repair(u, None, "")
                result.repair(v, image_u, PATH_REFINED)
                result.repair(u, image_v, PATH_REFINED)
                after = objective(result, affected)
                if after > before + 1e-12:
                    improved = True
                else:
                    result.repair(u, None, "")
                    result.repair(v, image_v, prov_v)
                    result.repair(u, image_u, prov_u)
    return result


def scrambled(mapping, g_reac, rng):
    """The mapping with images shuffled among non-conserved atoms of equal mass."""
    groups = {}
    for r in sorted(mapping.pairs):
        if not mapping.is_conserved(r):
            groups.setdefault(g_reac.nodes[r].mass, []).append(r)
    shuffled = mapping.copy()
    for members in groups.values():
        images = [mapping.pairs[r] for r in members]
        rng.shuffle(images)
        for r in members:
            shuffled.repair(r, None, "")
        for r, image in zip(members, images):
            shuffled.add(r, image, "similarity")
    return shuffled


def crosswise(mapping, a, b):
    """The mapping with the images of a and b exchanged."""
    broken = mapping.copy()
    image_a, image_b = broken.pairs[a], broken.pairs[b]
    broken.repair(a, None, "")
    broken.repair(b, image_a, "similarity")
    broken.repair(a, image_b, "similarity")
    return broken


class TestRefineSymmetricPaths:
    def test_edge_consistency_resolves_equivalent_paths(self):
        g_reac, g_prod = para_ring_system()
        mapping = iterate_conserved(g_reac, g_prod)
        assert set(mapping.pairs) == {7, 8}
        mapping, matrix = assign_similarity(mapping, g_reac, g_prod)
        # Force a crosswise ring assignment, then require repair.
        broken = crosswise(mapping, 2, 6)
        refined = refine_symmetric_paths(broken, g_reac, g_prod, matrix)
        for a, b in g_reac.edges:
            if a in refined.pairs and b in refined.pairs:
                assert g_prod.has_edge(refined.pairs[a], refined.pairs[b])
        assert any(refined.provenance[r] == PATH_REFINED for r in (2, 6))

    def test_no_op_on_asymmetric_molecule(self):
        g1 = make_graph([(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)], [(1, 2), (2, 3)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)], [(1, 2), (2, 3)], MASSES, "product")
        mapping = AtomMapping()
        for i in (1, 2, 3):
            mapping.add(i, i, "similarity")
        matrix = build_similarity_matrix(g1, g2, {1, 2, 3}, {1, 2, 3})
        refined = refine_symmetric_paths(mapping, g1, g2, matrix)
        assert refined.pairs == mapping.pairs

    def test_preserves_cardinality_and_conserved_pairs(self):
        g_reac, g_prod = para_ring_system()
        mapping = iterate_conserved(g_reac, g_prod)
        mapping, matrix = assign_similarity(mapping, g_reac, g_prod)
        refined = refine_symmetric_paths(mapping, g_reac, g_prod, matrix)
        assert len(refined.pairs) == len(mapping.pairs)
        for r in mapping.pairs:
            if mapping.is_conserved(r):
                assert refined.pairs[r] == mapping.pairs[r]

    def test_idempotent(self):
        g_reac, g_prod = para_ring_system()
        mapping = iterate_conserved(g_reac, g_prod)
        mapping, matrix = assign_similarity(mapping, g_reac, g_prod)
        once = refine_symmetric_paths(mapping, g_reac, g_prod, matrix)
        twice = refine_symmetric_paths(once, g_reac, g_prod, matrix)
        assert once.pairs == twice.pairs

    def test_matches_rescoring_oracle(self):
        from test_acceptance import synthetic_reaction

        systems = [para_ring_system()] + [pair[:2] for pair in case_study_pairs()]
        systems += retyped_dimerizations()
        rng = random.Random(777)
        for trial in range(50):
            reactants, products, _ = synthetic_reaction(rng, delete_leaves=(trial % 2 == 1))
            systems.append(
                (build_unified_graph(reactants, "reactant"), build_unified_graph(products, "product"))
            )
        starts = []
        for g_reac, g_prod in systems:
            mapping, matrix = assign_similarity(iterate_conserved(g_reac, g_prod), g_reac, g_prod)
            starts.append((mapping, g_reac, g_prod, matrix))
        mapping, g_reac, g_prod, matrix = starts[0]
        starts.append((crosswise(mapping, 2, 6), g_reac, g_prod, matrix))
        shuffle_rng = random.Random(5)
        starts += [
            (scrambled(mapping, g_reac, shuffle_rng), g_reac, g_prod, matrix)
            for mapping, g_reac, g_prod, matrix in starts
        ]

        refined_any = False
        for mapping, g_reac, g_prod, matrix in starts:
            expected = refine_oracle(mapping, g_reac, g_prod)
            refined = refine_symmetric_paths(mapping, g_reac, g_prod, matrix)
            assert refined.pairs == expected.pairs
            assert refined.provenance == expected.provenance
            refined_any |= PATH_REFINED in refined.provenance.values()
        assert refined_any

    def test_leaves_input_unchanged_and_keeps_injection(self):
        systems = [para_ring_system()] + retyped_dimerizations()
        shuffle_rng = random.Random(11)
        refined_any = False
        for g_reac, g_prod in systems:
            mapping, matrix = assign_similarity(iterate_conserved(g_reac, g_prod), g_reac, g_prod)
            for start in (mapping, scrambled(mapping, g_reac, shuffle_rng)):
                before = copy.deepcopy(start)
                refined = refine_symmetric_paths(start, g_reac, g_prod, matrix)
                assert start.pairs == before.pairs
                assert start.reverse == before.reverse
                assert start.provenance == before.provenance
                validate_mapping(refined, g_reac, g_prod)
                assert refined.reverse == {p: r for r, p in refined.pairs.items()}
                assert refined.provenance.keys() == refined.pairs.keys()
                refined_any |= PATH_REFINED in refined.provenance.values()
        assert refined_any


def methane_pair_system(cross: bool):
    """Two CH2 heavy atoms whose hydrogens may be paired crosswise."""
    atoms = [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0)]
    bonds = [(1, 2), (1, 3)]
    g_reac = make_graph(atoms, bonds, MASSES, "reactant")
    g_prod = make_graph(atoms, bonds, MASSES, "product")
    mapping = AtomMapping()
    mapping.add(1, 1, "conserved-1")
    if cross:
        mapping.add(2, 3, "similarity")
        mapping.add(3, 2, "similarity")
    else:
        mapping.add(2, 2, "similarity")
        mapping.add(3, 3, "similarity")
    return g_reac, g_prod, mapping


def stray_hydrogen_system():
    """Reactant CH with its H mapped far away; product CH2 with a free H."""
    reactant = make_topology(
        [(1, 1, 0.0), (2, 3, 0.0), (3, 1, 0.0), (4, 3, 0.0)],
        [(1, 2), (1, 3), (3, 4)],
        MASSES,
    )
    product = make_topology(
        [(1, 1, 0.0), (2, 3, 0.0), (3, 1, 0.0), (4, 3, 0.0), (5, 3, 0.0)],
        [(1, 2), (1, 3), (3, 4), (1, 5)],
        MASSES,
    )
    g_reac = build_unified_graph([reactant], "reactant")
    g_prod = build_unified_graph([product], "product")
    mapping = AtomMapping()
    mapping.add(1, 1, "similarity")
    mapping.add(3, 3, "similarity")
    mapping.add(2, 4, "similarity")  # H of atom 1 mapped onto atom 3's H
    mapping.add(4, 2, "similarity")
    return g_reac, g_prod, mapping


class TestSwapHydrogens:
    def test_unequal_neighborhoods_reassign_strays(self):
        g_reac, g_prod, mapping = stray_hydrogen_system()
        swapped = swap_hydrogens(mapping, g_reac, g_prod)
        assert swapped.pairs[2] in (2, 5)
        assert g_prod.has_edge(1, swapped.pairs[2])
        assert swapped.provenance[2] == HYDROGEN_SWAPPED
        assert len(swapped.pairs) == len(mapping.pairs)

    def test_logs_counts_and_warns_at_sweep_cap(self, caplog, monkeypatch):
        g_reac, g_prod, mapping = stray_hydrogen_system()
        caplog.set_level(logging.INFO, logger="templater")
        swap_hydrogens(mapping, g_reac, g_prod)
        assert caplog.messages == ["hydrogen swap: 2 sweep(s), 1 swap(s)"]

        caplog.clear()
        monkeypatch.setattr("templater.similarity_assignment._MAX_SWEEPS", 1)
        swap_hydrogens(mapping, g_reac, g_prod)
        assert [r.levelno for r in caplog.records] == [logging.WARNING, logging.INFO]
        assert "1-sweep cap" in caplog.messages[0]
        assert caplog.messages[1] == "hydrogen swap: 1 sweep(s), 1 swap(s)"

    def test_no_hydrogens_no_op(self):
        g1 = make_graph([(1, 1, 0.0), (2, 2, 0.0)], [(1, 2)], MASSES, "reactant")
        g2 = make_graph([(1, 1, 0.0), (2, 2, 0.0), (3, 2, 0.0)], [(1, 2), (1, 3)], MASSES, "product")
        mapping = AtomMapping()
        mapping.add(1, 1, "similarity")
        mapping.add(2, 2, "similarity")
        swapped = swap_hydrogens(mapping, g1, g2)
        assert swapped.pairs == mapping.pairs

    def test_idempotent(self):
        g_reac, g_prod, mapping = methane_pair_system(cross=True)
        once = swap_hydrogens(mapping, g_reac, g_prod)
        twice = swap_hydrogens(once, g_reac, g_prod)
        assert once.pairs == twice.pairs

    def test_never_touches_conserved(self):
        reactant = make_topology(
            [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0)],
            [(1, 2), (1, 3)],
            MASSES,
        )
        product = make_topology(
            [(1, 1, 0.0), (2, 3, 0.0), (3, 3, 0.0), (4, 3, 0.0)],
            [(1, 2), (1, 3), (1, 4)],
            MASSES,
        )
        g_reac = build_unified_graph([reactant], "reactant")
        g_prod = build_unified_graph([product], "product")
        mapping = AtomMapping()
        mapping.add(1, 1, "similarity")
        mapping.add(2, 2, "conserved-1")
        mapping.add(3, 3, "conserved-1")
        swapped = swap_hydrogens(mapping, g_reac, g_prod)
        assert swapped.pairs[2] == 2
        assert swapped.pairs[3] == 3


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
