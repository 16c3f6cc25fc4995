"""Attributed molecular graphs built from parsed topologies.

A UnifiedGraph combines the per-molecule graphs of one reaction side under
globally unique node ids.  Nodes carry mass, type id, charge and the index
of the source molecule; edges come from the Bonds section of the inputs,
and the graph keeps those inputs for the templates cut from it.

Graphs are immutable after construction: nothing writes to one after
``__init__``, so every operation here is read-only and safe to call
concurrently.  Derived quantities (BFS shells, the edge set, centralities)
are computed on each call, and the caller keeps what it reuses.
Centralities come from one solver for every molecule, trees and rings
alike: Noda iteration on a sparse LDL^T factor, in plain Python, with no
``numpy.linalg`` call.
"""

from __future__ import annotations

import logging
import math
from itertools import chain
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


def _breadth_first_tree(
    graph: UnifiedGraph, root: int
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The atoms of root's connected piece in breadth-first order, the order
    ``UnifiedGraph.shells`` lists them in; for each atom, the position in
    that order of the atom it was reached from (0 for the root); and each
    ring bond, a bond to an earlier atom other than that one, once as
    (position, earlier position)."""
    order, parent, position, rings = [root], [0], {root: 0}, []
    # The loop also visits the atoms appended while it runs.
    for i, gid in enumerate(order):
        for nbr in graph.neighbors(gid):
            if nbr not in position:
                position[nbr] = len(order)
                order.append(nbr)
                parent.append(i)
            elif nbr != order[parent[i]] and position[nbr] < i:
                rings.append((i, position[nbr]))
    return order, parent, rings


def _factor_rows(
    parent: list[int], rings: list[tuple[int, int]]
) -> tuple[dict[int, tuple[list[tuple[int, int]], list[tuple[int, int, int]]]], list[float], int]:
    """Where the LDL^T factor of sigma*I - A of one connected piece has its
    entries, its atoms eliminated in reverse breadth-first order, each into
    the earlier atoms of its row: ``parent`` and ``rings`` as
    ``_breadth_first_tree`` gives them.

    An atom's row starts as its parent and its ring bonds.  Eliminating the
    atom joins every two atoms of its row, which puts the earlier of the two
    into the row of the later one unless it is there: fill, which only ever
    joins an atom to earlier atoms.  Adding the rest of the row to the row
    of its latest atom alone is enough, since that atom passes it on when it
    is eliminated in turn (George & Liu, Computer Solution of Large Sparse
    Positive Definite Systems, 1981).  A breadth-first order keeps the rows
    short on chains, rings and ladders of fused rings.

    Returns a dict that maps each atom whose row is more than its parent,
    or whose parent entry an elimination updates, last atom first, to
    ``(entries, updates)``: the ``(slot, earlier position)`` of each entry
    of its row, parent first, and the slots ``(target, a, b)`` of the entry
    that each two of them update when the atom is eliminated.  A tree maps
    no atom.  Also returns the initial values of the slots, -1.0 for a bond
    and 0.0 for fill, and the number of fill entries.
    """
    extra: dict[int, set[int]] = {}
    for i, k in rings:
        extra.setdefault(i, set()).add(k)
    slot: dict[tuple[int, int], int] = {}
    rows = {}
    for i in range(max(extra, default=0), 0, -1):
        row = extra.get(i, ())
        # An earlier elimination may have updated the parent entry alone.
        if not row and (i, parent[i]) not in slot:
            continue
        columns = [parent[i], *sorted(row)]
        entries = [(slot.setdefault((i, k), len(slot)), k) for k in columns]
        rows[i] = entries, [
            (slot.setdefault((a, b), len(slot)), s, t)
            for s, a in entries
            for t, b in entries
            if a > b
        ]
        j = max(columns)
        extra.setdefault(j, set()).update(set(columns) - {j, parent[j]})
    # Slots are numbered in the order the dict holds them.
    bonds = set(rings)
    values = [-1.0 if k == parent[j] or (j, k) in bonds else 0.0 for j, k in slot]
    return rows, values, values.count(0.0)


def _perron_vector(
    parent: list[int], rings: list[tuple[int, int]], degrees: list[int]
) -> tuple[list[float], int, int, float, float]:
    """Principal eigenvector, unit Euclidean norm, of the adjacency matrix A
    of one connected piece, its atoms in breadth-first order from its root:
    ``parent`` and ``rings`` as ``_breadth_first_tree`` gives them, and
    ``degrees`` the degree of each atom.

    Noda iteration (Noda, Numer. Math. 17, 1971): shifted inverse iteration
    whose next shift is the Collatz-Wielandt upper bound max_i (A y)_i / y_i
    of the new iterate y, a bound on the top eigenvalue for any positive y.
    Elsner (Linear Algebra Appl. 15, 1976) proves it converges
    quadratically.  The iteration starts from (A + I) 1, the degree vector
    plus one: every tree of the benchmark and the case studies takes 5
    solves from it, the all-atom ones 6 or 7 from the degree vector.  Each
    shift sigma factors sigma*I - A from the last atom to the first, each
    atom into its parent and the rest of its row from ``_factor_rows``; an
    atom of a tree updates its parent alone.  While sigma exceeds the top
    eigenvalue, sigma*I - A is a nonsingular M-matrix: every pivot is
    positive and every factor entry is at most 0, so every iterate stays
    positive.  It stops when the bracket [min_i, max_i] of (A y)_i / y_i
    closes to one unit in the last place of sigma, when sigma stops
    decreasing, or when a pivot is not positive, since sigma then lies
    within rounding of the top eigenvalue.

    Returns the eigenvector in breadth-first order, the number of fill
    entries, the number of solves and the final bracket.
    """
    rows, initial, fill = _factor_rows(parent, rings)
    n = len(parent)
    last_first, first_last = [*rows, 0], [*reversed(rows), n]
    y = [d + 1.0 for d in degrees]
    norm = math.hypot(*y)
    y = [v / norm for v in y]
    product = [0.0] * n
    for i, p in chain(enumerate(parent[1:], 1), rings):
        product[i] += y[p]
        product[p] += y[i]
    ratios = [a / b for a, b in zip(product, y)]
    low, high = min(ratios), max(ratios)
    sigma = high
    solves = 0
    while high - low > math.ulp(sigma):
        # Eliminate each atom, keeping the inverse of its pivot in pivot[i];
        # rhs carries the forward substitution of y, values the factor.
        pivot = [sigma] * n
        rhs = y[:]
        values = initial[:]
        # The atoms between two with rows of their own take the tree step;
        # the root, which is not eliminated, ends the last run.
        stop = n
        for g in last_first:
            for i in range(stop - 1, g, -1):
                inverse = pivot[i] = 1.0 / pivot[i]
                p = parent[i]
                pivot[p] -= inverse
                rhs[p] += rhs[i] * inverse
            stop = g
            if g:
                inverse = pivot[g] = 1.0 / pivot[g]
                entries, updates = rows[g]
                for s, k in entries:
                    scaled = values[s] * inverse
                    pivot[k] -= values[s] * scaled
                    rhs[k] -= scaled * rhs[g]
                for target, a, b in updates:
                    values[target] -= values[a] * values[b] * inverse
        if min(pivot) <= 0.0:
            break
        z = [rhs[0] / pivot[0]] * n
        start = 1
        for g in first_last:
            for i in range(start, g):
                z[i] = (rhs[i] + z[parent[i]]) * pivot[i]
            start = g + 1
            if g < n:
                total = rhs[g]
                for s, k in rows[g][0]:
                    total -= values[s] * z[k]
                z[g] = total * pivot[g]
        solves += 1
        # (sigma*I - A) z = y, so (A z)_i / z_i = sigma - y_i / z_i.
        ratios = [a / b for a, b in zip(y, z)]
        low, high = sigma - max(ratios), sigma - min(ratios)
        norm = math.hypot(*z)
        y = [v / norm for v in z]
        if high >= sigma:
            break
        sigma = high
    return y, fill, solves, low, high


def eigenvector_centrality(graph: UnifiedGraph, component: int) -> dict[int, float]:
    """Principal-eigenvector centrality of one molecule, unit Euclidean norm.

    Each connected piece is solved exactly by ``_perron_vector``, in O(n)
    per solve on a tree and in about O(n w^2) on a piece whose
    breadth-first shells hold at most w atoms.  Should the component be
    disconnected, each connected piece is treated on its own and atoms
    without bonds receive 0, as do all atoms of a molecule with no bonds at
    all.  Each solved piece is logged at INFO.
    """
    gids = graph.components.get(component)
    if gids is None:
        raise KeyError(f"no component {component} in graph")

    result: dict[int, float] = {}
    for start in gids:
        if start in result:
            continue
        # The piece holding the smallest atom not yet solved.
        order, parent, rings = _breadth_first_tree(graph, start)
        if len(order) == 1:
            result[start] = 0.0
            continue
        degrees = [len(graph.neighbors(gid)) for gid in order]
        x, fill, solves, low, high = _perron_vector(parent, rings, degrees)
        result.update(zip(order, x))
        logger.info(
            "centrality: %s molecule %d, %d atoms from atom %d: %d fill entries, "
            "%d Noda solves, Collatz-Wielandt bracket [%r, %r]",
            graph.side, component, len(order), start, fill, solves, low, high,
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
