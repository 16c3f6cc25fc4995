"""Attributed molecular graphs built from parsed topologies.

A UnifiedGraph combines the per-molecule graphs of one reaction side under
globally unique node ids.  Nodes carry mass, type id, charge and the index
of the source molecule; edges come from the Bonds section of the inputs,
and the graph keeps those inputs for the templates cut from it.

Graphs are immutable after construction: nothing writes to one after
``__init__``, so every operation here is read-only and safe to call
concurrently.  Derived quantities (BFS shells, the edge set, centralities)
are computed on each call, and the caller keeps what it reuses.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from templater.errors import EmptyTopology
from templater.lammps_io import SystemTopology

logger = logging.getLogger("templater")


class AtomNode(NamedTuple):
    """One atom of a unified graph."""

    global_id: int
    source_id: int
    mass: float
    type_id: int
    charge: float
    component: int


class UnifiedGraph:
    """Immutable union of the molecular graphs of one reaction side.

    Built in one pass over the data files.  Component ids follow the
    position of the topology in the list (1-based).  Each file's atoms,
    sorted by source id, take the next contiguous global ids, so the first
    molecule keeps its ids when they are contiguous, files with id gaps are
    renumbered by rank, and each component is a range of ids.  Edges come
    from the Bonds rows; a row that bonds an atom to itself is skipped.
    """

    def __init__(self, topologies: list[SystemTopology], side: str):
        self.side = side
        # The parsed data files, one per component, in component order.
        self.topologies: tuple[SystemTopology, ...] = tuple(topologies)
        self.nodes: dict[int, AtomNode] = {}
        self.components: dict[int, tuple[int, ...]] = {}
        # Per component, source id -> global id.
        self._gid_of: dict[int, dict[int, int]] = {}
        adjacency: dict[int, set[int]] = {}
        for position, topology in enumerate(self.topologies, start=1):
            if not len(topology.atoms):
                raise EmptyTopology(f"topology {position} has no atoms")
            first = len(self.nodes) + 1
            atoms = topology.atoms
            by_id = np.argsort(atoms["atom_id"], kind="stable")
            source_ids, type_ids, charges = (
                atoms[name].take(by_id).tolist() for name in ("atom_id", "type_id", "charge")
            )
            gids = range(first, first + len(source_ids))
            masses = topology.masses
            for gid, source_id, type_id, charge in zip(gids, source_ids, type_ids, charges):
                self.nodes[gid] = AtomNode(
                    gid, source_id, masses[type_id], type_id, charge, position
                )
                adjacency[gid] = set()
            gid_of = self._gid_of[position] = dict(zip(source_ids, gids))
            self.components[position] = tuple(gids)
            for a, b in zip(*topology.bonds[:, 1:].T.tolist()):
                if a != b:
                    a, b = gid_of[a], gid_of[b]
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        self._adjacency = {gid: tuple(sorted(nbrs)) for gid, nbrs in adjacency.items()}

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every bond once, as ``(smaller gid, larger gid)``; built on each call."""
        return frozenset((a, b) for a, nbrs in self._adjacency.items() for b in nbrs if a < b)

    def neighbors(self, gid: int) -> tuple[int, ...]:
        return self._adjacency[gid]

    def has_edge(self, a: int, b: int) -> bool:
        """Whether a and b are bonded; False when either is not a node."""
        return b in self._adjacency.get(a, ())

    def gid_for(self, component: int, source_id: int) -> int:
        return self._gid_of[component][source_id]

    def sorted_gids(self) -> list[int]:
        return list(self.nodes)

    def shells(self, *roots: int, limit: int | None = None) -> tuple[tuple[int, ...], ...]:
        """Nodes grouped by exact hop distance from the nearest of the roots.

        Index 0 holds the roots themselves, as given; index k the nodes k
        hops from the nearest root, in no set order.  The search stops at
        depth ``limit`` when one is given, or earlier where the roots'
        molecules end: bonds never join two data files, so those molecules
        hold all.  Computed on each call.
        """
        seen = set(roots)
        frontier = roots
        shells = [roots]
        while frontier and (limit is None or len(shells) <= limit):
            nxt = []
            for node in frontier:
                for nbr in self._adjacency[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            if nxt:
                shells.append(tuple(nxt))
            frontier = nxt
        return tuple(shells)


def build_unified_graph(topologies: list[SystemTopology], side: str) -> UnifiedGraph:
    """One side's topologies as one graph with global node ids; see ``UnifiedGraph``."""
    return UnifiedGraph(topologies, side)


def _perron_vector(cells: list[int], n: int) -> tuple[float, np.ndarray]:
    """Top eigenvalue and eigenvector x, scaled to 1^T x = 1, of the symmetric
    matrix M that counts each flat cell index ``i * (n + 1) + k`` of
    ``cells`` once at (i, k).

    M is counted with one ``np.bincount`` into the leading n x n block of a
    zero-bordered (n + 1) x (n + 1) array.  Its entries are small integers,
    exact in any summation order.  The symmetric eigenvalue solver gives
    the top eigenvalue alone, and one dense linear solve of the bordered
    system

        [[top*I - M, 1], [1^T, 0]] [x; mu] = [0; 1]

    gives x.  The system is nonsingular when top is simple and 1^T x != 0;
    by Perron-Frobenius both hold for the primitive non-negative matrices
    built here, whose top eigenvector is positive.  Its conditioning is set
    by the gap between the two largest eigenvalues, as is the accuracy of
    the eigenvector of a full eigendecomposition, which costs about twice
    as much from a few dozen atoms up.  M is turned into top*I - M in
    place: separate arrays for M, I and their difference triple the memory
    of the solve.  The whole contiguous array is negated, its zero border
    with it, and the border then rewritten: negating the strided n x n
    block alone makes numpy buffer a copy of it.  The corner is reset to
    +0.0, so ``solve`` gets the same bits either way.
    """
    bordered = np.bincount(cells, np.ones(len(cells)), (n + 1) ** 2).reshape(n + 1, n + 1)
    top = np.linalg.eigvalsh(bordered[:n, :n])[-1]
    np.negative(bordered, out=bordered)
    # The diagonal of the block, a view into the flat bordered array.
    bordered.reshape(-1)[: n * (n + 2) : n + 2] += top
    bordered[:n, n] = bordered[n, :n] = 1.0
    bordered[n, n] = 0.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return top, np.linalg.solve(bordered, rhs)[:n]


def _breadth_first_tree(graph: UnifiedGraph, root: int) -> tuple[list[int], list[int]]:
    """The atoms of root's connected piece in breadth-first order, the order
    ``UnifiedGraph.shells`` lists them in, and for each atom the position in
    that order of the atom it was reached from (0 for the root)."""
    order, parent, seen = [root], [0], {root}
    # The loop also visits the atoms appended while it runs.
    for i, gid in enumerate(order):
        for nbr in graph.neighbors(gid):
            if nbr not in seen:
                seen.add(nbr)
                order.append(nbr)
                parent.append(i)
    return order, parent


def _tree_perron_vector(
    parent: list[int], degrees: list[int]
) -> tuple[list[float], int, float, float]:
    """Principal eigenvector, unit Euclidean norm, of the adjacency matrix A
    of one tree, its atoms in breadth-first order from its root: ``parent``
    gives the position of each atom's parent, and ``degrees`` its degree.

    Noda iteration (Noda, Numer. Math. 17, 1971): shifted inverse iteration
    whose next shift is the Collatz-Wielandt upper bound max_i (A y)_i / y_i
    of the new iterate y, a bound on the top eigenvalue for any positive y.
    Elsner (Linear Algebra Appl. 15, 1976) proves it converges
    quadratically.  The iteration starts from the degree vector.  Each shift
    sigma factors sigma*I - A leaves first, from the last atom to the
    first: a tree has no fill, and every pivot is positive while
    sigma exceeds the top eigenvalue, so every iterate stays positive.  It
    stops when the bracket [min_i, max_i] of (A y)_i / y_i closes to one
    unit in the last place of sigma, when sigma stops decreasing, or when a
    pivot is not positive, since sigma then lies within rounding of the top
    eigenvalue.

    Returns the eigenvector in breadth-first order, the number of solves
    and the final bracket.
    """
    n = len(parent)
    norm = math.hypot(*degrees)
    y = [d / norm for d in degrees]
    product = [0.0] * n
    for i in range(1, n):
        p = parent[i]
        product[i] += y[p]
        product[p] += y[i]
    ratios = [a / b for a, b in zip(product, y)]
    low, high = min(ratios), max(ratios)
    sigma = high
    solves = 0
    while high - low > math.ulp(sigma):
        # Eliminate each atom into its parent, keeping the inverse of its
        # pivot in pivot[i]; rhs carries the forward substitution of y.
        pivot = [sigma] * n
        rhs = y[:]
        for i in range(n - 1, 0, -1):
            inverse = pivot[i] = 1.0 / pivot[i]
            p = parent[i]
            pivot[p] -= inverse
            rhs[p] += rhs[i] * inverse
        if min(pivot) <= 0.0:
            break
        z = [rhs[0] / pivot[0]] * n
        for i in range(1, n):
            z[i] = (rhs[i] + z[parent[i]]) * pivot[i]
        solves += 1
        # (sigma*I - A) z = y, so (A z)_i / z_i = sigma - y_i / z_i.
        ratios = [a / b for a, b in zip(y, z)]
        step = min(ratios)
        low, high = sigma - max(ratios), sigma - step
        norm = math.hypot(*z)
        y = [v / norm for v in z]
        if high >= sigma:
            break
        sigma = high
    return y, solves, low, high


def eigenvector_centrality(graph: UnifiedGraph, component: int) -> dict[int, float]:
    """Principal-eigenvector centrality of one molecule, unit Euclidean norm.

    Each connected piece is solved exactly.  A piece with one bond fewer
    than atoms is a tree, solved in O(n) by ``_tree_perron_vector``.  Any
    other piece has a ring and is solved densely by ``_perron_vector``.
    A ring piece whose breadth-first shells from its smallest atom have no
    bond inside one shell is bipartite, with the even and the odd shells as
    its parts: A = [[0, B], [B^T, 0]] with B the biadjacency from the smaller
    part S to the larger part L.  Its principal eigenvector [u; v] has u the
    Perron vector of K = B B^T, whose top eigenvalue is sigma^2, and
    v = B^T u / sigma, so the cubic work runs on |S| <= n/2 atoms.  K is
    counted from the bonds into the bordered array, and B is built only
    after the solve, so the two never share memory.  K is primitive
    (connected, with the atom degrees on its diagonal), so sigma^2 is
    simple.  A piece with an odd ring is solved on M = A + I, counted from
    the bonds too: the shift leaves the eigenvectors unchanged and makes the
    matrix primitive, so its top eigenvalue is simple too.  Should the
    component be disconnected, each connected piece is treated on its own
    and atoms without bonds receive 0, as do all atoms of a molecule with no
    bonds at all.  Each solved piece is logged at INFO.
    """
    gids = graph.components.get(component)
    if gids is None:
        raise KeyError(f"no component {component} in graph")

    result: dict[int, float] = {}
    for start in gids:
        if start in result:
            continue
        # The piece holding the smallest atom not yet solved.
        order, parent = _breadth_first_tree(graph, start)
        if len(order) == 1:
            result[start] = 0.0
            continue
        # A connected piece holds every neighbour of its atoms, so its
        # degrees count each of its bonds twice.
        degrees = [len(graph.neighbors(gid)) for gid in order]
        if sum(degrees) == 2 * (len(order) - 1):
            x, solves, low, high = _tree_perron_vector(parent, degrees)
            result.update(zip(order, x))
            logger.info(
                "centrality: %s molecule %d, %d atoms from atom %d: tree, "
                "%d Noda solves, Collatz-Wielandt bracket [%r, %r]",
                graph.side, component, len(order), start, solves, low, high,
            )
            continue
        depth = {gid: d for d, shell in enumerate(graph.shells(start)) for gid in shell}
        piece = sorted(depth)
        # A connected piece holds every neighbour of its atoms.
        if all(depth[gid] != depth[nbr] for gid in piece for nbr in graph.neighbors(gid)):
            even = [gid for gid in piece if not depth[gid] & 1]
            odd = [gid for gid in piece if depth[gid] & 1]
            small, large = (even, odd) if len(even) <= len(odd) else (odd, even)
            s = len(small)
            row = {gid: i for i, gid in enumerate(small)}
            # The neighbours of each L atom, as rows of S.
            adjacent = [[row[nbr] for nbr in graph.neighbors(gid)] for gid in large]
            # K[i, k] counts the common neighbours of small[i] and small[k]:
            # each L atom adds one to every cell of its neighbours' pairs, its
            # degree to their diagonal.  Small integers, so K is exact in any
            # summation order and holds the bits B B^T would.
            top, u = _perron_vector(
                [i * (s + 1) + k for rows in adjacent for i in rows for k in rows], s
            )
            # B is built only now, beside no s x s array, for v = B^T u / sigma.
            biadjacency = np.zeros((s, len(large)))
            biadjacency.reshape(-1)[
                [i * len(large) + j for j, rows in enumerate(adjacent) for i in rows]
            ] = 1.0
            x = np.concatenate((u, biadjacency.T @ u / np.sqrt(top)))
            # x lists S, then L.
            piece = small + large
        else:
            n = len(piece)
            index = {gid: i for i, gid in enumerate(piece)}
            # A + I: the diagonal, then each bond once from either end.
            cells = [i * (n + 2) for i in range(n)]
            for i, gid in enumerate(piece):
                cells += [i * (n + 1) + index[nbr] for nbr in graph.neighbors(gid)]
            _, x = _perron_vector(cells, n)
        result.update(zip(piece, (np.abs(x) / np.linalg.norm(x)).tolist()))
        logger.info(
            "centrality: %s molecule %d, %d atoms from atom %d: dense",
            graph.side, component, len(piece), start,
        )
    return result


_ROLE_STYLE = {
    "conserved": ("black", "white"),
    "anchored": ("red", "black"),
    "similarity": ("red", "black"),
    "created": ("green", "black"),
    "deleted": ("blue", "white"),
    "initiator": ("orange", "black"),
}


def dot_export(graph: UnifiedGraph, roles: dict[int, str] | None = None, name: str | None = None) -> str:
    """Render the graph as DOT text with mapping-role colors.

    Node labels are the source atom ids; the fill color encodes the mapping
    role (conserved black, anchored and similarity red, created green,
    deleted blue, initiators orange).
    """
    roles = roles or {}
    out = [f'graph "{name or graph.side}" {{']
    out.append("  node [shape=circle, style=filled, fillcolor=lightgray];")
    for gid in graph.sorted_gids():
        node = graph.nodes[gid]
        fill, font = _ROLE_STYLE.get(roles.get(gid, ""), ("lightgray", "black"))
        out.append(
            f'  n{gid} [label="{node.source_id}", fillcolor="{fill}", fontcolor="{font}"];'
        )
    for a, b in sorted(graph.edges):
        out.append(f"  n{a} -- n{b};")
    out.append("}")
    return "\n".join(out) + "\n"
