"""Seeded inputs for the pipeline benchmark.

Every workload is a list of *instances*: one reaction each, given to the
program only as LAMMPS data files, plus the ground truth the benchmark
checks the outputs against.  Generated workloads draw their instances from
the seed, which permutes the atom ids of every file (as the synthetic
reactions of the acceptance suite do), so the same seed gives the same
files and different seeds give equivalent reactions in another atom order.

Chain chemistry follows the typing of the bundled butene/octane fixture
(sp2 ``c2``/``ha`` on the vinyl group, sp3 ``c3``/``hc`` elsewhere),
extended to n carbons.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

MASS_C = 12.011
MASS_H = 1.008

# Shared type table of the explicit-hydrogen chain workloads.  The ``x``
# types are the retyped copies a force field assigns near a reaction site:
# same mass, different type id.
CHAIN_TYPES = {
    1: ("c2", MASS_C),
    2: ("c3", MASS_C),
    3: ("ha", MASS_H),
    4: ("hc", MASS_H),
    5: ("c3x", MASS_C),
    6: ("hcx", MASS_H),
}
C2, C3, HA, HC, C3X, HCX = 1, 2, 3, 4, 5, 6

# United-atom chains: each carbon carries its hydrogens in its mass.
UA_TYPES = {
    1: ("CH2=", 14.027),
    2: ("=CH-", 13.019),
    3: ("CH2", 14.027),
    4: ("CH3", 15.035),
}
UA_VINYL_END, UA_VINYL_MID, UA_CH2, UA_CH3 = 1, 2, 3, 4

# Sizes: each keeps one pipeline call near 0.2-0.4 s in pure Python, so a
# run of the benchmark holds enough samples for a tail percentile, while the
# layer the workload isolates still dominates the call.
ALKENE_CARBONS = 7
RETYPED_CARBONS = 5
RETYPED_RADIUS = 4
UA_CARBONS = 96

# Instances drawn per seed, each with its own atom order.  Atom order moves
# the conserved-region search effort several-fold (hydrogen symmetry), so
# alkene_dimer needs many orders per run for its median to be steady.  On
# retyped_site about a quarter of the orders cost path refinement an extra
# sweep; with 72 instances the tail (ten calls beyond it) nearly always
# falls on those, instead of flipping between the two costs from seed to
# seed.
POOL = {"alkene_dimer": 72, "retyped_site": 72, "ua_chain": 24}

# name: (reactant files, product files, created, deleted, pinned values)
CASE_STUDIES = {
    "polyaddition": (
        ("mdi.data", "bd.data"), ("polyaddition_product.data",), 0, 0,
        {"conserved": 30, "pre_atoms": 35, "post_atoms": 35, "product_nodes": 45,
         "deleted_masses": []},
    ),
    "polycondensation": (
        ("ht.data", "mpd.data"), ("polycondensation_product.data",), 0, 3,
        {"conserved": 36, "pre_atoms": 32, "post_atoms": 29, "product_nodes": 40,
         "deleted_masses": [1.008, 1.008, 15.999], "initiators": [[1, 7], [2, 7]]},
    ),
    "chain": (
        ("butene.data", "butene.data"), ("octane.data",), 2, 0,
        {"conserved": 14, "pre_atoms": 24, "post_atoms": 26, "product_nodes": 26,
         "deleted_masses": [], "created_mass": 1.008},
    ),
}


@dataclass
class Molecule:
    """Atoms in local order 0..n-1 with types, charges and bonds."""

    name: str
    types: list[int]
    charges: list[float]
    bonds: list[tuple[int, int]]


@dataclass
class Instance:
    """One reaction: input files plus the expected outcome."""

    name: str
    reactants: list[str]
    products: list[str]
    created: int
    deleted: int
    # Exact values pinned by the acceptance suite (case studies only).
    pinned: dict = field(default_factory=dict)


def _add_hydrogens(mol: Molecule, carbon: int, count: int, type_id: int, charge: float) -> None:
    for _ in range(count):
        mol.types.append(type_id)
        mol.charges.append(charge)
        mol.bonds.append((carbon, len(mol.types) - 1))


def alkene(n: int) -> Molecule:
    """1-alkene C1=C2-C3-...-Cn with every hydrogen explicit."""
    mol = Molecule(f"1-alkene C{n}", [C2, C2] + [C3] * (n - 2),
                   [-0.2, -0.1] + [-0.12] * (n - 3) + [-0.18], [])
    mol.bonds = [(i, i + 1) for i in range(n - 1)]
    _add_hydrogens(mol, 0, 2, HA, 0.1)
    _add_hydrogens(mol, 1, 1, HA, 0.1)
    for carbon in range(2, n):
        _add_hydrogens(mol, carbon, 3 if carbon == n - 1 else 2, HC, 0.06)
    return mol


def dimer_alkane(n: int, retype_radius: int | None = None) -> Molecule:
    """Head-to-head dimer of two 1-alkenes: a linear alkane of 2n carbons.

    Carbons are ordered along the chain, so C1 of the two alkenes sit at
    positions n-1 and n and form the new bond.  With ``retype_radius`` R,
    every atom within R bonds of the new bond (the bond itself counting as
    one) gets the retyped ``c3x``/``hcx`` type.
    """
    carbons = 2 * n
    mol = Molecule(f"alkane C{carbons}", [C3] * carbons,
                   [-0.18] + [-0.12] * (carbons - 2) + [-0.18], [])
    mol.bonds = [(i, i + 1) for i in range(carbons - 1)]
    for carbon in range(carbons):
        end = carbon in (0, carbons - 1)
        _add_hydrogens(mol, carbon, 3 if end else 2, HC, 0.06)
    if retype_radius is not None:
        distance = _distances(mol, (n - 1, n))
        for atom, hops in distance.items():
            if hops < retype_radius:
                mol.types[atom] = C3X if mol.types[atom] == C3 else HCX
    return mol


def ua_alkene(n: int) -> Molecule:
    """United-atom 1-alkene: no hydrogen atoms at all."""
    types = [UA_VINYL_END, UA_VINYL_MID] + [UA_CH2] * (n - 3) + [UA_CH3]
    return Molecule(f"united-atom 1-alkene C{n}", types, [0.0] * n,
                    [(i, i + 1) for i in range(n - 1)])


def ua_dimer(n: int) -> Molecule:
    """United-atom head-to-head dimer: a 2n-site alkane chain."""
    types = [UA_CH3] + [UA_CH2] * (2 * n - 2) + [UA_CH3]
    return Molecule(f"united-atom alkane C{2 * n}", types, [0.0] * (2 * n),
                    [(i, i + 1) for i in range(2 * n - 1)])


def _adjacency(mol: Molecule) -> dict[int, list[int]]:
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(mol.types))}
    for a, b in mol.bonds:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def _distances(mol: Molecule, sources: tuple[int, ...]) -> dict[int, int]:
    adjacency = _adjacency(mol)
    distance = {s: 0 for s in sources}
    frontier = list(sources)
    while frontier:
        nxt = []
        for atom in frontier:
            for nbr in adjacency[atom]:
                if nbr not in distance:
                    distance[nbr] = distance[atom] + 1
                    nxt.append(nbr)
        frontier = nxt
    return distance


class _TypeRegistry:
    """Canonical type signature -> interaction type id, first come first served."""

    def __init__(self) -> None:
        self.ids: dict[tuple[int, ...], int] = {}

    def of(self, signature: tuple[int, ...]) -> int:
        canonical = min(signature, signature[::-1])
        return self.ids.setdefault(canonical, len(self.ids) + 1)


def _angles_and_dihedrals(mol: Molecule) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    adjacency = _adjacency(mol)
    angles = [
        (nbrs[i], center, nbrs[j])
        for center, nbrs in adjacency.items()
        for i in range(len(nbrs))
        for j in range(i + 1, len(nbrs))
    ]
    dihedrals = [
        (a, b, c, d)
        for b, c in mol.bonds
        for a in adjacency[b]
        if a != c
        for d in adjacency[c]
        if d not in (a, b)
    ]
    return angles, dihedrals


def emit_data_file(
    mol: Molecule,
    type_table: dict[int, tuple[str, float]],
    atom_ids: list[int],
    registries: dict[str, _TypeRegistry],
) -> str:
    """Render a molecule as a full-style LAMMPS data file.

    ``atom_ids[i]`` is the file id of local atom i; rows are written in id
    order, as a data file would list them.
    """
    angles, dihedrals = _angles_and_dihedrals(mol)
    sections = []
    for name, rows in (("Bonds", mol.bonds), ("Angles", angles), ("Dihedrals", dihedrals)):
        lines = []
        for k, members in enumerate(rows, start=1):
            type_id = registries[name].of(tuple(mol.types[m] for m in members))
            lines.append(f"{k} {type_id} " + " ".join(str(atom_ids[m]) for m in members))
        sections.append((name, lines))

    out = [f"# {mol.name}", "", f"{len(mol.types)} atoms"]
    out += [f"{len(lines)} {name.lower()}" for name, lines in sections]
    out.append(f"{len(type_table)} atom types")
    out += [f"{max(len(registries[name].ids), 1)} {name.lower()[:-1]} types" for name, _ in sections]
    out += ["", "0.0 500.0 xlo xhi", "0.0 50.0 ylo yhi", "0.0 50.0 zlo zhi", "", "Masses", ""]
    out += [f"{t} {mass} # {label}" for t, (label, mass) in sorted(type_table.items())]
    out += ["", "Atoms # full", ""]
    for local in sorted(range(len(mol.types)), key=lambda i: atom_ids[i]):
        out.append(
            f"{atom_ids[local]} 1 {mol.types[local]} {mol.charges[local]:.6f} "
            f"{1.54 * local:.6f} {0.5 * (local % 3):.6f} {0.35 * (local % 7):.6f}"
        )
    for name, lines in sections:
        out += ["", name, ""] + lines
    return "\n".join(out) + "\n"


def _write_reaction(
    directory: str,
    name: str,
    reactants: list[Molecule],
    products: list[Molecule],
    type_table: dict[int, tuple[str, float]],
    rng: random.Random,
) -> tuple[list[str], list[str]]:
    registries = {section: _TypeRegistry() for section in ("Bonds", "Angles", "Dihedrals")}
    paths: tuple[list[str], list[str]] = ([], [])
    for side, molecules in enumerate((reactants, products)):
        for k, mol in enumerate(molecules):
            atom_ids = list(range(1, len(mol.types) + 1))
            rng.shuffle(atom_ids)
            path = os.path.join(directory, f"{name}-{'rp'[side]}{k + 1}.data")
            with open(path, "w", encoding="ascii", newline="\n") as handle:
                handle.write(emit_data_file(mol, type_table, atom_ids, registries))
            paths[side].append(path)
    return paths


def _chain_reaction(kind: str):
    """(reactants, products, type table, created, deleted) of one workload."""
    if kind == "alkene_dimer":
        mol = alkene(ALKENE_CARBONS)
        return [mol, mol], [dimer_alkane(ALKENE_CARBONS)], CHAIN_TYPES, 2, 0
    if kind == "retyped_site":
        mol = alkene(RETYPED_CARBONS)
        product = dimer_alkane(RETYPED_CARBONS, RETYPED_RADIUS)
        return [mol, mol], [product], CHAIN_TYPES, 2, 0
    if kind == "ua_chain":
        mol = ua_alkene(UA_CARBONS)
        return [mol, mol], [ua_dimer(UA_CARBONS)], UA_TYPES, 0, 0
    raise KeyError(kind)


def case_studies(fixture_dir: str) -> list[Instance]:
    """The three bundled reactions, with the values the acceptance suite pins."""
    return [
        Instance(
            name=name,
            reactants=[os.path.join(fixture_dir, f) for f in reactants],
            products=[os.path.join(fixture_dir, f) for f in products],
            created=created,
            deleted=deleted,
            pinned=pinned,
        )
        for name, (reactants, products, created, deleted, pinned) in CASE_STUDIES.items()
    ]


def generated(kind: str, seed: int, directory: str) -> list[Instance]:
    """The seed's pool of instances of a generated workload, written under ``directory``."""
    reactants, products, table, created, deleted = _chain_reaction(kind)
    rng = random.Random(f"{kind}:{seed}")
    instances = []
    for k in range(POOL[kind]):
        name = f"{kind}-{k}"
        r_paths, p_paths = _write_reaction(directory, name, reactants, products, table, rng)
        instances.append(Instance(name, r_paths, p_paths, created, deleted))
    return instances


GENERATED = ("alkene_dimer", "retyped_site", "ua_chain")
WORKLOADS = ("case_studies",) + GENERATED


def instances_for(kind: str, seed: int, directory: str, fixture_dir: str) -> list[Instance]:
    if kind == "case_studies":
        return case_studies(fixture_dir)
    if kind in GENERATED:
        return generated(kind, seed, directory)
    raise KeyError(f"unknown workload {kind!r}; expected one of {WORKLOADS}")
